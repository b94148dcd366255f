// The four workloads and the helpers they share.
//
// Every workload has the same shape:
//   1. set up several times (input generation, server or store start)
//      and report the median as setup_s;
//   2. one warm-up pass, not measured;
//   3. measured passes until the run's time is up (measure()). The
//      untraced passes give the end-to-end metrics; with --trace 1 traced
//      passes alternate with them and give the per-layer metrics and
//      obs.trace_overhead_pct;
//   4. every output is compared byte for byte with its expected bytes.
#pragma once

#include <algorithm>
#include <vector>

#include "common.hpp"
#include "corpus/workload.hpp"
#include "obs/trace.hpp"
#include "trace.hpp"

namespace ipbench {

Results run_release_corpus(const RunOptions& options);
Results run_large_image(const RunOptions& options);
Results run_ota_fleet(const RunOptions& options);
Results run_store_history(const RunOptions& options);

/// The generated inputs of the two build workloads (for the self-test).
std::vector<ipd::VersionPair> release_corpus_inputs(std::uint64_t seed);
ipd::VersionPair large_image_inputs(std::uint64_t seed);

/// Repeat setup() at least kMinSetupRepetitions times and until
/// kSetupBudgetS seconds have gone into it (so a cheap set-up's median
/// rests on many samples); the last repetition's state is kept. Returns
/// the median wall seconds.
template <typename Fn>
double timed_setup(Fn&& setup) {
  std::vector<double> walls;
  double spent = 0;
  while (walls.size() < kMinSetupRepetitions ||
         (spent < kSetupBudgetS && walls.size() < kMaxSetupRepetitions)) {
    walls.push_back(time_s(setup));
    spent += walls.back();
  }
  return median(walls);
}

/// Scoped tracing: spans are recorded while one is alive.
class TracingOn {
 public:
  TracingOn() { Tracer::instance().set_enabled(true); }
  ~TracingOn() { Tracer::instance().set_enabled(false); }
  TracingOn(const TracingOn&) = delete;
  TracingOn& operator=(const TracingOn&) = delete;
};

/// What measure() saw.
struct Measured {
  std::vector<double> untraced_walls;  ///< per pass
  std::vector<double> traced_walls;    ///< per pass; empty with --trace 0
  double untraced_cpu_s = 0;           ///< process CPU over untraced passes
  double untraced_wall_s = 0;
  /// thread_scaling(min(4, nproc)), probed once after the passes.
  double thread_scaling = 0;
  /// The program's obs::stage_totals() accumulated over the traced passes.
  ipd::obs::StageTotals traced_stages{};
};

void add_stage_delta(ipd::obs::StageTotals& into,
                     const ipd::obs::StageTotals& before,
                     const ipd::obs::StageTotals& after);

/// Run pass(traced) until the run's time is up (at least one pass). With
/// --trace 0 every pass is untraced; with --trace 1 untraced and traced
/// passes alternate, so host drift during the run falls on both alike
/// and their ratio is the tracing overhead.
template <typename Fn>
Measured measure(const RunOptions& options, Fn&& pass) {
  Measured m;
  Tracer::instance().clear();
  const auto end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  do {
    const double cpu0 = process_cpu_s();
    const auto start = Clock::now();
    pass(false);
    const double wall = seconds_between(start, Clock::now());
    m.untraced_walls.push_back(wall);
    m.untraced_wall_s += wall;
    m.untraced_cpu_s += process_cpu_s() - cpu0;
    if (!options.trace) continue;
    ipd::obs::flush_thread_stats();
    const ipd::obs::StageTotals before = ipd::obs::stage_totals();
    const auto traced_start = Clock::now();
    {
      const TracingOn tracing;
      pass(true);
    }
    m.traced_walls.push_back(seconds_between(traced_start, Clock::now()));
    ipd::obs::flush_thread_stats();
    add_stage_delta(m.traced_stages, before, ipd::obs::stage_totals());
  } while (Clock::now() < end);
  m.thread_scaling = thread_scaling(std::min<std::size_t>(4, host_threads()));
  return m;
}

/// core.crc32c_mb_s and core.adler32_mb_s over the workload's own
/// buffers (traced, median of three sweeps).
void core_probe(Results& results, const std::vector<ipd::ByteView>& buffers);

/// Per-layer metrics every workload reports once its traced passes are
/// over: trace overhead, host probe and CPU time. Also prints the span
/// table beside the program's stage table and writes the spans out.
void finish_traced_run(Results& results, const RunOptions& options,
                       const Measured& measured, const SpanSummary& summary);

/// host.* metadata printed with every run (not gated).
void print_host(const Measured& measured);

}  // namespace ipbench
