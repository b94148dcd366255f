// E10 — software distribution at fleet scale: update archives across a
// multi-file release history, and the delta service's routes for devices
// scattered over that history. Extends the paper's single-file
// evaluation to the artifact a publisher actually ships.
#include <cstdio>
#include <map>

#include "archive/archive.hpp"
#include "bench_util.hpp"
#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "delta/compose.hpp"
#include "delta/stats.hpp"
#include "server/delta_service.hpp"

namespace {

using namespace ipd;

std::vector<FileSet> make_distribution_history(std::size_t releases) {
  Rng rng(0xD157);
  std::vector<FileSet> history(1);
  MutationModel model;
  model.length_scale = 64;
  for (int f = 0; f < 10; ++f) {
    const FileProfile profile =
        f % 2 == 0 ? FileProfile::kText : FileProfile::kBinary;
    history[0]["file" + std::to_string(f)] =
        generate_file(rng, rng.range(16 << 10, 96 << 10), profile);
  }
  for (std::size_t r = 1; r < releases; ++r) {
    FileSet next;
    for (const auto& [name, content] : history.back()) {
      next[name] = mutate(content, rng, 30, model);
    }
    // Release churn: occasionally add or drop a file.
    if (r % 2 == 0) {
      next["file-new-r" + std::to_string(r)] =
          generate_file(rng, 20 << 10, FileProfile::kBinary);
    }
    if (r % 3 == 0 && !next.empty()) {
      next.erase(next.begin()->first);
    }
    history.push_back(std::move(next));
  }
  return history;
}

}  // namespace

int main() {
  constexpr std::size_t kReleases = 6;
  const auto history = make_distribution_history(kReleases);

  std::printf(
      "Distribution archives — release-to-release upgrade artifacts\n");
  bench::rule('=');
  std::printf("%10s %12s %12s %8s | %6s %6s %6s\n", "upgrade", "release",
              "archive", "ratio", "delta", "lit", "del");
  for (std::size_t r = 1; r < kReleases; ++r) {
    ArchiveBuildOptions options;
    options.pipeline.compress_payload = true;
    ArchiveBuildReport report;
    const Bytes wire =
        build_archive_bytes(history[r - 1], history[r], options, &report);

    // Prove it lands.
    FileSet mirror = history[r - 1];
    apply_archive(deserialize_archive(wire), mirror);
    if (mirror != history[r]) {
      std::printf("VERIFY FAILED at release %zu\n", r);
      return 1;
    }
    std::printf("%7zu->%zu %12s %12s %8s | %6zu %6zu %6zu\n", r - 1, r,
                format_bytes(report.new_release_bytes).c_str(),
                format_bytes(wire.size()).c_str(),
                format_percent(100.0 * static_cast<double>(wire.size()) /
                               static_cast<double>(report.new_release_bytes))
                    .c_str(),
                report.delta_entries, report.literal_entries,
                report.delete_entries);
  }

  bench::rule();
  std::printf(
      "Delta service — per-device download to reach the latest release\n"
      "(single-file image distilled from the release history)\n");
  VersionStore store;
  for (const FileSet& release : history) {
    // Concatenate each release's files into one image.
    Bytes image;
    for (const auto& [name, content] : release) {
      (void)name;
      image.insert(image.end(), content.begin(), content.end());
    }
    store.publish(std::move(image));
  }
  DeltaService service(store);
  const ReleaseId latest = kReleases - 1;
  const Bytes& target = *store.body(latest);
  std::printf("%8s %12s %12s %10s %8s\n", "from", "plan bytes", "full image",
              "saving", "hops");
  for (ReleaseId from = 0; from < latest; ++from) {
    const ServeResult served = service.serve(from, latest);
    if (apply_served(served, *store.body(from)) != target) {
      std::printf("PLAN VERIFY FAILED from %llu\n",
                  static_cast<unsigned long long>(from));
      return 1;
    }
    std::printf("%8llu %12s %12s %9.1fx %8zu\n",
                static_cast<unsigned long long>(from),
                format_bytes(served.total_bytes).c_str(),
                format_bytes(target.size()).c_str(),
                static_cast<double>(target.size()) /
                    static_cast<double>(served.total_bytes),
                served.steps.size());
  }
  const std::uint64_t fleet_builds = service.metrics().builds.load();
  std::printf("(deltas built for the whole fleet: %llu)\n",
              static_cast<unsigned long long>(fleet_builds));

  bench::rule();
  // Chain folding (delta composition): mint a direct v0->vN delta from
  // the served per-hop deltas, never touching the endpoint files, and
  // compare against the differencer's direct delta.
  {
    std::vector<std::shared_ptr<const Bytes>> artifacts;
    std::vector<ParsedDelta> hops;
    std::uint64_t chain_bytes = 0;
    for (ReleaseId k = 0; k < latest; ++k) {
      const ServeResult hop = service.serve(k, k + 1);
      if (hop.steps.size() != 1 || hop.steps[0].full_image) {
        std::printf("hop %llu->%llu was not served as one delta\n",
                    static_cast<unsigned long long>(k),
                    static_cast<unsigned long long>(k + 1));
        return 1;
      }
      chain_bytes += hop.total_bytes;
      artifacts.push_back(hop.steps[0].bytes);
      hops.push_back(parse_delta(*artifacts.back()));
    }
    const Bytes& reference = *store.body(0);
    const PipelineOptions& pipeline = service.options().pipeline;
    const Bytes folded = make_inplace_delta(
        fold_chain(hops), reference, target, pipeline.convert, nullptr,
        pipeline.compress_payload);
    const Bytes direct = Pipeline().build_inplace(reference, target).delta;

    Bytes image = reference;
    image.resize(std::max(reference.size(), target.size()));
    const length_t n = apply_delta_inplace(folded, image);
    const bool ok = n == target.size() &&
                    std::equal(target.begin(), target.end(), image.begin());
    std::printf(
        "chain folding (compose %zu per-hop deltas into one, no "
        "re-diffing):\n"
        "  chain total %s -> folded %s; direct differ delta %s; %s\n",
        hops.size(), format_bytes(chain_bytes).c_str(),
        format_bytes(folded.size()).c_str(),
        format_bytes(direct.size()).c_str(),
        ok ? "folded delta verified" : "VERIFY FAILED");
    if (!ok) return 1;
  }

  bench::rule();
  std::printf(
      "expected shape: archives ship a few percent of the release; older\n"
      "devices pay more but always far less than the full image; the\n"
      "service builds only the deltas its routes price.\n");
  return 0;
}
