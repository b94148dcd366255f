// E7 — google-benchmark micro suite for the §4.3 asymptotics: digraph
// construction, topological sort + cycle breaking, full conversion, the
// differencers, the appliers, the journaled device updaters, the codec,
// and the byte kernels (checksums and the overlapping copy) under the
// apply path.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>

#include "adversary/constructions.hpp"
#include "apply/stream_applier.hpp"
#include "core/checksum.hpp"
#include "core/checksum_kernels.hpp"
#include "core/lzss.hpp"
#include "device/resumable_updater.hpp"
#include "device/stream_updater.hpp"
#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "corpus/workload.hpp"
#include "delta/onepass_differ.hpp"
#include "inplace/converter.hpp"
#include "inplace/scc.hpp"
#include "ipdelta.hpp"
#include "verify/verifier.hpp"

namespace {

using namespace ipd;

// A reusable versioned pair sized by the benchmark argument.
struct Pair {
  Bytes ref;
  Bytes ver;
};

Pair make_pair_bytes(std::size_t size) {
  Rng rng(size * 2654435761u + 1);
  Pair p;
  p.ref = generate_file(rng, size, FileProfile::kBinary);
  p.ver = mutate(p.ref, rng, std::max<std::size_t>(2, size >> 14));
  return p;
}

// One pair per size, generated once and shared by the rows below.
const Pair& cached_pair(std::size_t size) {
  static std::map<std::size_t, Pair> cache;
  auto it = cache.find(size);
  if (it == cache.end()) it = cache.emplace(size, make_pair_bytes(size)).first;
  return it->second;
}

// The one-pass differ's two layers, split: the rolling hash and index
// build over the reference, then the segment scan of the version
// against a prebuilt index. 256 KiB is a release_corpus-sized file,
// 12 MiB a large_image one.
void BM_OnePassIndex(benchmark::State& state) {
  const Pair& p = cached_pair(static_cast<std::size_t>(state.range(0)));
  const OnePassDiffer differ;
  for (auto _ : state) {
    benchmark::DoNotOptimize(differ.build_index(p.ref));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * p.ref.size()));
}
BENCHMARK(BM_OnePassIndex)->Arg(256 << 10)->Arg(12 << 20);

void BM_OnePassScan(benchmark::State& state) {
  const Pair& p = cached_pair(static_cast<std::size_t>(state.range(0)));
  const OnePassDiffer differ;
  const auto index = differ.build_index(p.ref);
  for (auto _ : state) {
    benchmark::DoNotOptimize(differ.scan(*index, p.ref, p.ver));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * p.ver.size()));
}
BENCHMARK(BM_OnePassScan)->Arg(256 << 10)->Arg(12 << 20);

void BM_DiffGreedy(benchmark::State& state) {
  const Pair p = make_pair_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(diff_bytes(DifferKind::kGreedy, p.ref, p.ver));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * p.ver.size()));
}
BENCHMARK(BM_DiffGreedy)->Range(1 << 12, 1 << 18);

void BM_CrwiGraphBuild(benchmark::State& state) {
  // Block permutations give |C| = n vertices and |E| = n edges.
  Rng rng(7);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const AdversaryInstance inst =
      make_block_permutation(64, random_permutation(rng, n));
  const auto copies = sorted_copies(inst.script.commands());
  for (auto _ : state) {
    benchmark::DoNotOptimize(CrwiGraph::build(copies, n * 64));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_CrwiGraphBuild)->Range(1 << 6, 1 << 14);

// A CRWI digraph with the conversion costs the converter would use.
struct TopoGraph {
  CrwiGraph graph;
  std::vector<std::uint64_t> costs;
};

TopoGraph topo_graph(std::vector<CopyCommand> copies,
                     length_t version_length) {
  std::sort(copies.begin(), copies.end(),
            [](const CopyCommand& a, const CopyCommand& b) {
              return a.to < b.to;
            });
  const CodewordCostModel model(kPaperExplicit, version_length);
  return TopoGraph{CrwiGraph::build(copies, version_length),
                   conversion_costs(copies, model)};
}

// Sorts `t` under the on-line policy in Arg 0 (0 constant, 1 local-min);
// counters: copies converted, and cycle vertices local-min walked.
void run_topo_sort(benchmark::State& state, const TopoGraph& t) {
  const BreakPolicy policy = static_cast<BreakPolicy>(state.range(0));
  std::size_t deleted = 0;
  std::size_t cyclewalk = 0;
  for (auto _ : state) {
    const TopoSortResult r =
        topo_sort_breaking_cycles(t.graph, policy, t.costs);
    deleted = r.deleted.size();
    cyclewalk = r.cycle_length_sum;
    benchmark::DoNotOptimize(r.order.data());
  }
  state.counters["deleted"] = static_cast<double>(deleted);
  state.counters["cyclewalk"] = static_cast<double>(cyclewalk);
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * t.graph.vertex_count()));
}

void BM_TopoSort(benchmark::State& state) {
  Rng rng(8);
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  const AdversaryInstance inst =
      make_block_permutation(64, random_permutation(rng, n));
  run_topo_sort(state,
                topo_graph(sorted_copies(inst.script.commands()), n * 64));
}
BENCHMARK(BM_TopoSort)
    ->ArgsProduct({{0 /*constant*/, 1 /*local-min*/}, {1 << 8, 1 << 12}});

// About 20k copies of random length (1..400 bytes) tiling 4 MiB, each
// reading a random range: a cycle-rich graph where victims often sit
// inside the gray path, the shape on which a sort that re-runs whole
// DFS passes blows up.
void BM_TopoSortRandomCopies(benchmark::State& state) {
  static const TopoGraph t = [] {
    constexpr length_t kTotal = 4 << 20;
    Rng rng(20);
    std::vector<CopyCommand> copies;
    for (offset_t to = 0; to < kTotal;) {
      const length_t len = std::min<length_t>(rng.range(1, 400), kTotal - to);
      copies.push_back(CopyCommand{rng.below(kTotal - len + 1), to, len});
      to += len;
    }
    return topo_graph(std::move(copies), kTotal);
  }();
  run_topo_sort(state, t);
}
BENCHMARK(BM_TopoSortRandomCopies)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Figure 3 at L = 1 MiB: 2,047 copies, about 1M edges, acyclic.
void BM_TopoSortFig3(benchmark::State& state) {
  static const TopoGraph t = [] {
    const Fig3Instance inst = make_fig3_quadratic(1024);
    return topo_graph(sorted_copies(inst.script.commands()),
                      inst.version.size());
  }();
  run_topo_sort(state, t);
}
BENCHMARK(BM_TopoSortFig3)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_ConvertCorpusPair(benchmark::State& state) {
  const Pair p = make_pair_bytes(static_cast<std::size_t>(state.range(0)));
  const Script script = diff_bytes(DifferKind::kOnePass, p.ref, p.ver);
  for (auto _ : state) {
    benchmark::DoNotOptimize(convert_to_inplace(script, p.ref, {}));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * p.ver.size()));
}
BENCHMARK(BM_ConvertCorpusPair)->Range(1 << 12, 1 << 20);

void BM_ApplyScratch(benchmark::State& state) {
  const Pair p = make_pair_bytes(static_cast<std::size_t>(state.range(0)));
  const Script script = diff_bytes(DifferKind::kOnePass, p.ref, p.ver);
  for (auto _ : state) {
    benchmark::DoNotOptimize(apply_script(script, p.ref));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * p.ver.size()));
}
BENCHMARK(BM_ApplyScratch)->Range(1 << 12, 1 << 20);

void BM_ApplyInplace(benchmark::State& state) {
  const Pair p = make_pair_bytes(static_cast<std::size_t>(state.range(0)));
  const Script script = diff_bytes(DifferKind::kOnePass, p.ref, p.ver);
  const ConvertResult converted = convert_to_inplace(script, p.ref, {});
  Bytes buffer(std::max(p.ref.size(), p.ver.size()));
  for (auto _ : state) {
    std::copy(p.ref.begin(), p.ref.end(), buffer.begin());
    apply_inplace(converted.script, buffer, p.ref.size(), p.ver.size());
    benchmark::DoNotOptimize(buffer.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * p.ver.size()));
}
BENCHMARK(BM_ApplyInplace)->Range(1 << 12, 1 << 20);

// One in-place artifact per pair size, built once and shared by the
// decode and apply rows below.
struct BuiltPair {
  const Pair& pair;  // cached_pair's, which lives as long as the process
  Bytes delta;
};

const BuiltPair& built_pair(std::size_t size) {
  static std::map<std::size_t, BuiltPair> cache;
  auto it = cache.find(size);
  if (it == cache.end()) {
    const Pair& p = cached_pair(size);
    Bytes delta = Pipeline().build_inplace(p.ref, p.ver).delta;
    it = cache.emplace(size, BuiltPair{p, std::move(delta)}).first;
  }
  return it->second;
}

// The container decode alone: header, Adler-32, the borrowed command
// table and the bounds and tiling checks, with no add byte copied.
// Items are codewords, so items_per_second gives the ns per codeword.
void BM_ParseDelta(benchmark::State& state) {
  const BuiltPair& b = built_pair(static_cast<std::size_t>(state.range(0)));
  const std::size_t codewords = parse_delta(b.delta).commands.size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(parse_delta(b.delta));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * b.delta.size()));
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * codewords));
}
BENCHMARK(BM_ParseDelta)->Arg(1 << 20)->Arg(12 << 20);

// The streaming decoder alone over the 1 MiB artifact's payload, fed in
// 1 KiB chunks as a device receives it; items are codewords.
void BM_StreamingDecode(benchmark::State& state) {
  const BuiltPair& b = built_pair(1 << 20);
  const auto header = try_parse_header(b.delta);
  const ByteView payload = ByteView(b.delta).subspan(header->second);
  std::size_t codewords = 0;
  for (auto _ : state) {
    StreamingCommandDecoder decoder(header->first.format,
                                    header->first.version_length);
    codewords = 0;
    for (std::size_t at = 0; at < payload.size(); at += 1024) {
      decoder.feed(payload.subspan(at, std::min<std::size_t>(
                                           1024, payload.size() - at)));
      while (const auto command = decoder.next_ref()) {
        benchmark::DoNotOptimize(command->length);
        ++codewords;
      }
    }
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * payload.size()));
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * codewords));
}
BENCHMARK(BM_StreamingDecode);

// The static Verifier as the device-facing gates run it: parse_delta's
// decode step and model check, then the one Equation-2 scan.
void BM_VerifyDelta(benchmark::State& state) {
  const BuiltPair& b = built_pair(static_cast<std::size_t>(state.range(0)));
  const Verifier verifier(VerifyOptions{.require_in_place = true});
  const Report report = verifier.check(b.delta);
  if (!report.ok() || !report.in_place_safe) {
    state.SkipWithError("verifier rejected pipeline output");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(verifier.check(b.delta));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * b.delta.size()));
}
BENCHMARK(BM_VerifyDelta)->Arg(1 << 20)->Arg(12 << 20);

// End-to-end apply_delta_inplace (decode, command loop, version CRC),
// plus restoring the reference into the buffer every iteration.
void BM_ApplyDeltaInplace(benchmark::State& state) {
  const BuiltPair& b = built_pair(static_cast<std::size_t>(state.range(0)));
  Bytes buffer(std::max(b.pair.ref.size(), b.pair.ver.size()));
  for (auto _ : state) {
    std::copy(b.pair.ref.begin(), b.pair.ref.end(), buffer.begin());
    benchmark::DoNotOptimize(apply_delta_inplace(b.delta, buffer));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * b.pair.ver.size()));
}
BENCHMARK(BM_ApplyDeltaInplace)->Arg(1 << 20)->Arg(12 << 20);

// One journal record serialized and written to in-memory storage: a
// checkpoint (Arg 0) or a sub-step record with a 4 KiB undo (Arg 1),
// both with a 64-byte container header.
void BM_JournalAppend(benchmark::State& state) {
  const ApplyJournalOptions opts{/*page_size=*/4096, /*undo_capacity=*/4096,
                                 /*header_capacity=*/256};
  const std::size_t slot = ApplyJournal::slot_bytes(opts);
  MemoryJournalStorage storage(2 * slot);
  Bytes scratch(slot);
  ApplyJournal journal(storage, MutByteView(scratch), opts);
  Bytes undo(state.range(0) == 0 ? 0 : 4096);
  Bytes header(64);
  Rng(5).fill(undo);
  Rng(6).fill(header);
  ApplyRecordFields fields;
  fields.kind = state.range(0) == 0 ? ApplyRecordKind::kCheckpoint
                                    : ApplyRecordKind::kSubstep;
  for (auto _ : state) {
    ++fields.command_index;
    journal.append(fields, undo, header);
    benchmark::DoNotOptimize(storage.bytes().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_JournalAppend)->Arg(0)->Arg(1);

// Journaled device updates, reloading the reference image every
// iteration: the staged path (whole artifact in RAM, parse_delta) and the
// streaming path (1400-byte chunks). Arg 0 is one 128 KiB mutate-style
// pair of about 100 commands; Arg 1 a 192 KiB release_corpus-style pair
// with its block moves and duplicates, about 1,500 commands and many
// CRWI cycles, which exercises the Equation-2 guard.
constexpr std::size_t kDevicePair = 128 << 10;
constexpr std::size_t kDevicePage = 4096;
constexpr std::size_t kDeviceJournal = 16 << 10;

const BuiltPair& release_style_pair() {
  static const Pair pair = [] {
    CorpusOptions options;
    options.packages = 2;
    options.releases_per_package = 2;
    options.min_file_size = options.max_file_size = 192 << 10;
    options.edits_per_64k = 80;
    options.mutation_model.move_weight = 1.2;
    options.mutation_model.duplicate_weight = 1.0;
    options.mutation_model.max_edit_fraction = 0.03;
    options.mutation_model.length_scale = 96;
    VersionPair vp = std::move(standard_corpus(options).back());
    return Pair{std::move(vp.reference), std::move(vp.version)};
  }();
  static const BuiltPair built{
      pair, Pipeline().build_inplace(pair.ref, pair.ver).delta};
  return built;
}

const BuiltPair& device_pair(benchmark::State& state) {
  const BuiltPair& b =
      state.range(0) == 0 ? built_pair(kDevicePair) : release_style_pair();
  state.counters["commands"] =
      static_cast<double>(parse_delta(b.delta).commands.size());
  return b;
}

FlashDevice device_for(const BuiltPair& b, JournalRegion& journal) {
  const std::size_t area =
      (std::max(b.pair.ref.size(), b.pair.ver.size()) + kDevicePage - 1) /
      kDevicePage * kDevicePage;
  journal = JournalRegion{area, kDeviceJournal};
  return FlashDevice(area + kDeviceJournal, kDevicePage, area + (64 << 10));
}

void BM_ApplyUpdateResumable(benchmark::State& state) {
  const BuiltPair& b = device_pair(state);
  JournalRegion journal;
  FlashDevice device = device_for(b, journal);
  for (auto _ : state) {
    device.load_image(b.pair.ref);
    clear_journal(device, journal);
    benchmark::DoNotOptimize(
        apply_update_resumable(device, b.delta, channel_28k(), journal));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * b.pair.ver.size()));
}
BENCHMARK(BM_ApplyUpdateResumable)->Arg(0)->Arg(1);

void BM_StreamingDeviceUpdate(benchmark::State& state) {
  const BuiltPair& b = device_pair(state);
  JournalRegion journal;
  FlashDevice device = device_for(b, journal);
  StreamArtifactInfo info;
  info.artifact_crc = crc32c(b.delta);
  info.artifact_size = b.delta.size();
  for (auto _ : state) {
    device.load_image(b.pair.ref);
    clear_journal(device, journal);
    StreamingDeviceUpdater updater(device, journal, info);
    for (std::size_t pos = 0; pos < b.delta.size(); pos += 1400) {
      updater.feed(ByteView(b.delta).subspan(
          pos, std::min<std::size_t>(1400, b.delta.size() - pos)));
    }
    benchmark::DoNotOptimize(updater.finished());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * b.pair.ver.size()));
}
BENCHMARK(BM_StreamingDeviceUpdate)->Arg(0)->Arg(1);

// Byte-kernel sizes: about one journal record, a page, a small delta,
// one store_history release, 1 MiB, and the 12 MiB image.
void kernel_sizes(benchmark::internal::Benchmark* b) {
  b->Arg(512)->Arg(4 << 10)->Arg(64 << 10)->Arg(128 << 10);
  b->Arg(1 << 20)->Arg(12 << 20);
}

template <typename Checksum>
void run_checksum(benchmark::State& state, Checksum checksum) {
  Bytes data(static_cast<std::size_t>(state.range(0)));
  Rng(11).fill(data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(checksum(ByteView(data)));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * data.size()));
}

void BM_Crc32c(benchmark::State& state) {
  run_checksum(state, [](ByteView d) { return crc32c(d); });
}
BENCHMARK(BM_Crc32c)->Apply(kernel_sizes);

void BM_Crc32cPortable(benchmark::State& state) {
  run_checksum(state, [](ByteView d) { return detail::crc32c_portable(d); });
}
BENCHMARK(BM_Crc32cPortable)->Apply(kernel_sizes);

void BM_Adler32(benchmark::State& state) {
  run_checksum(state, [](ByteView d) { return adler32(d); });
}
BENCHMARK(BM_Adler32)->Apply(kernel_sizes);

void BM_Adler32Portable(benchmark::State& state) {
  run_checksum(state, [](ByteView d) { return detail::adler32_portable(d); });
}
BENCHMARK(BM_Adler32Portable)->Apply(kernel_sizes);

// One self-overlapping copy that shifts the whole buffer down by 64
// bytes, the §4.1 case a converted in-place script leaves behind.
void BM_OverlappingCopy(benchmark::State& state) {
  const auto length = static_cast<std::size_t>(state.range(0));
  Bytes buffer(length + 64);
  Rng(12).fill(buffer);
  for (auto _ : state) {
    overlapping_copy(buffer, 64, 0, length);
    benchmark::DoNotOptimize(buffer.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * length));
}
BENCHMARK(BM_OverlappingCopy)->Apply(kernel_sizes);

void BM_SerializeDelta(benchmark::State& state) {
  const Pair p = make_pair_bytes(1 << 16);
  const Script script = diff_bytes(DifferKind::kOnePass, p.ref, p.ver);
  const std::span<const CommandRef> table = script.commands();
  DeltaHeader header;
  header.format = state.range(0) == 0 ? kPaperExplicit : kVarintExplicit;
  header.reference_length = p.ref.size();
  header.version_length = p.ver.size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(serialize_delta(header, table));
  }
}
BENCHMARK(BM_SerializeDelta)->Arg(0)->Arg(1);

// parse_delta on a 64 KiB pair's in-place delta: the per-call cost the
// 1 MiB and 12 MiB BM_ParseDelta rows amortise.
void BM_ParseDelta64K(benchmark::State& state) {
  const Pair p = make_pair_bytes(1 << 16);
  const Bytes delta = Pipeline().build_inplace(p.ref, p.ver).delta;
  const std::size_t codewords = parse_delta(delta).commands.size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(parse_delta(delta));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * delta.size()));
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * codewords));
}
BENCHMARK(BM_ParseDelta64K);

void BM_LzssEncode(benchmark::State& state) {
  Rng rng(11);
  const Bytes input = generate_file(rng, static_cast<std::size_t>(state.range(0)),
                                    FileProfile::kText);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lzss_encode(input));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * input.size()));
}
BENCHMARK(BM_LzssEncode)->Range(1 << 12, 1 << 20);

void BM_LzssDecode(benchmark::State& state) {
  Rng rng(12);
  const Bytes input = generate_file(rng, static_cast<std::size_t>(state.range(0)),
                                    FileProfile::kText);
  const Bytes encoded = lzss_encode(input);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lzss_decode(encoded, input.size()));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * input.size()));
}
BENCHMARK(BM_LzssDecode)->Range(1 << 12, 1 << 20);

void BM_SccDecomposition(benchmark::State& state) {
  Rng rng(13);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const AdversaryInstance inst =
      make_block_permutation(64, random_permutation(rng, n));
  const auto copies = sorted_copies(inst.script.commands());
  const CrwiGraph g = CrwiGraph::build(copies, n * 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(strongly_connected_components(g));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_SccDecomposition)->Range(1 << 8, 1 << 14);

void BM_StreamingApply(benchmark::State& state) {
  const Pair p = make_pair_bytes(1 << 17);
  const Bytes delta = Pipeline().build_inplace(p.ref, p.ver).delta;
  Bytes buffer(std::max(p.ref.size(), p.ver.size()));
  for (auto _ : state) {
    std::copy(p.ref.begin(), p.ref.end(), buffer.begin());
    benchmark::DoNotOptimize(
        apply_delta_inplace_streaming(delta, buffer, 1400));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * p.ver.size()));
}
BENCHMARK(BM_StreamingApply);

void BM_Fig2LocalMin(benchmark::State& state) {
  const Fig2Instance inst =
      make_fig2_tree(static_cast<std::size_t>(state.range(0)));
  const auto copies = sorted_copies(inst.script.commands());
  const CrwiGraph g = CrwiGraph::build(copies, inst.version.size());
  const CodewordCostModel model(kPaperExplicit, inst.version.size());
  const auto costs = conversion_costs(copies, model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        topo_sort_breaking_cycles(g, BreakPolicy::kLocalMin, costs));
  }
}
BENCHMARK(BM_Fig2LocalMin)->DenseRange(6, 14, 4);

}  // namespace

BENCHMARK_MAIN();
