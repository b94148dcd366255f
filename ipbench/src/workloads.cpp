#include "workloads.hpp"

#include <algorithm>
#include <cstdio>

#include "core/checksum.hpp"

namespace ipbench {

void add_stage_delta(ipd::obs::StageTotals& into,
                     const ipd::obs::StageTotals& before,
                     const ipd::obs::StageTotals& after) {
  for (std::size_t i = 0; i < ipd::obs::kStageCount; ++i) {
    into.cells[i].ns += after.cells[i].ns - before.cells[i].ns;
    into.cells[i].bytes += after.cells[i].bytes - before.cells[i].bytes;
    into.cells[i].count += after.cells[i].count - before.cells[i].count;
  }
}

void core_probe(Results& results, const std::vector<ipd::ByteView>& buffers) {
  const TracingOn tracing;
  double bytes = 0;
  for (const ipd::ByteView b : buffers) bytes += static_cast<double>(b.size());
  std::vector<double> crc_rates, adler_rates;
  std::uint32_t sink = 0;
  for (int sweep = 0; sweep < 3; ++sweep) {
    crc_rates.push_back(mb_per_s(bytes, time_s([&] {
      for (const ipd::ByteView b : buffers) {
        sink ^= traced("core.crc32c", [&] { return ipd::crc32c(b); });
      }
    })));
    adler_rates.push_back(mb_per_s(bytes, time_s([&] {
      for (const ipd::ByteView b : buffers) {
        sink ^= traced("core.adler32", [&] { return ipd::adler32(b); });
      }
    })));
  }
  if (sink == 0x5eed) std::printf("(checksum sink)\n");
  results.layer("core.crc32c_mb_s", median(crc_rates), "MB/s");
  results.layer("core.adler32_mb_s", median(adler_rates), "MB/s");
}

void print_host(const Measured& measured) {
  std::printf("host: %zu hardware threads; raw-thread busy loop scales "
              "%.2fx at %zu threads; untraced passes used %.2f s CPU in "
              "%.2f s wall\n",
              host_threads(), measured.thread_scaling,
              std::min<std::size_t>(4, host_threads()),
              measured.untraced_cpu_s, measured.untraced_wall_s);
}

namespace {

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

void print_stage_tables(const SpanSummary& summary,
                        const ipd::obs::StageTotals& totals) {
  std::printf("\nbenchmark spans (traced passes): total / self ms, calls\n");
  for (const auto& [name, total] : summary.total_ns) {
    std::printf("  %-34s %10.2f %10.2f %8llu\n", name.c_str(), ms(total),
                ms(summary.self_ns.at(name)),
                static_cast<unsigned long long>(summary.calls.at(name)));
  }
  std::printf("self time per layer:\n");
  for (const auto& [layer, self] : summary.layer_self_ns) {
    std::printf("  %-34s %10.2f ms\n", layer.c_str(), ms(self));
  }
  std::printf("program obs::stage_totals() over the same passes: ms, "
              "calls\n");
  for (std::size_t i = 0; i < ipd::obs::kStageCount; ++i) {
    const auto stage = static_cast<ipd::obs::Stage>(i);
    if (totals[stage].count == 0) continue;
    std::printf("  %-34s %10.2f %8llu\n", ipd::obs::stage_name(stage),
                ms(totals[stage].ns),
                static_cast<unsigned long long>(totals[stage].count));
  }
}

}  // namespace

void finish_traced_run(Results& results, const RunOptions& options,
                       const Measured& measured, const SpanSummary& summary) {
  print_stage_tables(summary, measured.traced_stages);
  const double untraced = median(measured.untraced_walls);
  const double traced = median(measured.traced_walls);
  results.layer("obs.trace_overhead_pct",
                untraced > 0 ? 100.0 * (traced / untraced - 1.0) : 0.0, "%");
  results.layer("host.thread_scaling", measured.thread_scaling, "ratio");
  results.layer("host.cpu_s", measured.untraced_cpu_s, "s");
  if (!options.spans_out.empty()) {
    if (Tracer::instance().write_json(options.spans_out)) {
      std::printf("spans written to %s\n", options.spans_out.c_str());
    } else {
      std::fprintf(stderr, "could not write %s\n", options.spans_out.c_str());
    }
  }
}

}  // namespace ipbench
