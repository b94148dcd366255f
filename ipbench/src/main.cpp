// ipbench — the ipdelta benchmark.
//
//   ipbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--spans-out <file>] [--work-dir <dir>]
//   ipbench --selftest --seed <n>
//
// Prints human-readable lines, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 1 when any
// output mismatched its expected bytes, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>

#include "build_steps.hpp"
#include "workloads.hpp"

namespace {

using namespace ipbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric names and units BENCHMARK.json declares, in its order.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},       {"delta_ratio", "ratio"},
    {"apply_mb_s", "MB/s"}, {"update_ms_p50", "ms"},
    {"update_ms_tail", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"build_mb_s", "MB/s"},
    {"core.crc32c_mb_s", "MB/s"},
    {"core.adler32_mb_s", "MB/s"},
    {"delta.diff_ms", "ms"},
    {"delta.diff_mb_s", "MB/s"},
    {"delta.segments", "count"},
    {"delta.encode_ms", "ms"},
    {"delta.copy_cmds", "count"},
    {"delta.add_cmds", "count"},
    {"delta.add_bytes", "B"},
    {"delta.diff_cpu_wall", "ratio"},
    {"inplace.convert_ms", "ms"},
    {"inplace.crwi_edges", "count"},
    {"inplace.cycles_found", "count"},
    {"inplace.copies_converted", "count"},
    {"inplace.bytes_converted", "B"},
    {"verify.ms", "ms"},
    {"verify.mb_s", "MB/s"},
    {"apply.inplace_ms", "ms"},
    {"apply.scratch_ms", "ms"},
    {"apply.inplace_noncrc_ms", "ms"},
    {"device.update_ms", "ms"},
    {"device.flash_bytes_written", "B"},
    {"device.flash_pages_written", "count"},
    {"device.ram_high_water", "B"},
    {"device.journal_records", "count"},
    {"device.flash_bytes_per_byte", "ratio"},
    {"server.serve_us_p50", "us"},
    {"server.serve_us_p99", "us"},
    {"server.cache_hit_rate", "ratio"},
    {"server.builds", "count"},
    {"net.connect_ms", "ms"},
    {"net.transfer_ms_p50", "ms"},
    {"net.frames_per_update", "count"},
    {"net.retries", "count"},
    {"net.shed", "count"},
    {"net.wire_bytes_per_update", "B"},
    {"store.publish_ms", "ms"},
    {"store.reconstruct_ms", "ms"},
    {"store.chain_hops_per_reconstruct", "ratio"},
    {"store.bytes_appended", "B"},
    {"store.folds", "count"},
    {"obs.trace_overhead_pct", "%"},
    {"host.thread_scaling", "ratio"},
    {"host.cpu_s", "s"},
};

void usage() {
  std::fprintf(stderr,
               "usage: ipbench --workload "
               "<release_corpus|large_image|ota_fleet|store_history> "
               "--seed <n> --seconds <s> --trace <0|1> [--spans-out <file>] "
               "[--work-dir <dir>]\n"
               "       ipbench --selftest --seed <n>\n");
}

/// Emits `specs` in order from `measured`; a metric the workload does not
/// touch reads 0 (per-layer only). Returns false on a metric that is not
/// declared, declared with another unit, missing from the end-to-end set,
/// or not finite.
template <std::size_t N>
bool render_metrics(const MetricSpec (&specs)[N],
                    const std::vector<Metric>& measured, bool all_required,
                    std::string& json) {
  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : measured) by_name[m.name] = &m;
  bool ok = true;
  for (const Metric& m : measured) {
    bool declared = false;
    for (const MetricSpec& spec : specs) {
      declared = declared || (m.name == spec.name && m.unit == spec.unit);
    }
    if (!declared) {
      std::fprintf(stderr, "undeclared metric %s [%s]\n", m.name.c_str(),
                   m.unit.c_str());
      ok = false;
    }
  }
  for (const MetricSpec& spec : specs) {
    const auto it = by_name.find(spec.name);
    if (it == by_name.end() && all_required) {
      std::fprintf(stderr, "metric %s was not measured\n", spec.name);
      ok = false;
    }
    const double value = it == by_name.end() ? 0.0 : it->second->value;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "metric %s is not finite\n", spec.name);
      ok = false;
    }
    std::printf("  %-36s %16.6g %s\n", spec.name, value, spec.unit);
    char entry[192];
    std::snprintf(entry, sizeof entry,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", spec.name,
                  std::isfinite(value) ? value : 0.0, spec.unit);
    json += entry;
  }
  return ok;
}

/// Determinism checks that are too slow for every run: the large_image
/// artifact is byte-identical at parallelism 1 and min(4, nproc), and the
/// decomposed build equals Pipeline::build_inplace on both build
/// workloads' inputs.
int selftest(std::uint64_t seed) {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  const ipd::VersionPair image = large_image_inputs(seed);
  const Builder serial(1);
  const Builder wide(std::min<std::size_t>(4, host_threads()));
  const ipd::Bytes p1 = serial.build(image.reference, image.version, false).delta;
  const BuildOutput pn = wide.build(image.reference, image.version, false);
  expect(same_bytes(p1, pn.delta),
         "large_image artifact identical at parallelism 1 and " +
             std::to_string(wide.parallelism()) + " (" +
             std::to_string(pn.segments) + " diff segments)");
  expect(same_bytes(wide.build(image.reference, image.version, true).delta, p1),
         "large_image decomposed build equals Pipeline::build_inplace");
  std::size_t identical = 0;
  const std::vector<ipd::VersionPair> corpus = release_corpus_inputs(seed);
  for (const ipd::VersionPair& pair : corpus) {
    identical += same_bytes(serial.build(pair.reference, pair.version, true).delta,
                            serial.build(pair.reference, pair.version, false).delta)
                     ? 1
                     : 0;
  }
  expect(identical == corpus.size(),
         "release_corpus decomposed builds equal Pipeline::build_inplace (" +
             std::to_string(identical) + "/" + std::to_string(corpus.size()) +
             ")");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  bool run_selftest = false;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      run_selftest = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = options.seconds > 0;
    } else if (arg == "--trace" && has_value) {
      const std::string v = argv[++i];
      options.trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else if (arg == "--spans-out" && has_value) {
      options.spans_out = argv[++i];
    } else if (arg == "--work-dir" && has_value) {
      options.work_dir = argv[++i];
    } else {
      usage();
      return 2;
    }
  }
  if (run_selftest) return selftest(options.seed);
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage();
    return 2;
  }

  Results results;
  try {
    if (options.workload == "release_corpus") {
      results = run_release_corpus(options);
    } else if (options.workload == "large_image") {
      results = run_large_image(options);
    } else if (options.workload == "ota_fleet") {
      results = run_ota_fleet(options);
    } else if (options.workload == "store_history") {
      results = run_store_history(options);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", options.workload.c_str(), e.what());
    return 1;
  }

  std::printf("\n%s, seed %llu, %s metrics:\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? "per-layer" : "end-to-end");
  std::string json;
  const bool metrics_ok =
      options.trace
          ? render_metrics(kPerLayer, results.per_layer, false, json)
          : render_metrics(kEndToEnd, results.end_to_end, true, json);
  const double error_rate =
      results.attempted == 0 ? 1.0
                             : static_cast<double>(results.failed) /
                                   static_cast<double>(results.attempted);
  std::printf("  %-36s %16.6g ratio (%llu of %llu checked outputs "
              "mismatched)\n",
              "error_rate", error_rate,
              static_cast<unsigned long long>(results.failed),
              static_cast<unsigned long long>(results.attempted));
  const bool correct =
      metrics_ok && results.attempted > 0 && results.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(results.attempted),
              static_cast<unsigned long long>(results.failed), json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
