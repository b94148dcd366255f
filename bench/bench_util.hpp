// Shared helpers for the paper-table benches: wall-clock timing and the
// corpus E1-E3 use. Latency distributions go through obs::Histogram
// (src/obs/) — the same lock-free recorder production code uses — so
// bench_server and bench_net no longer carry their own percentile math.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "corpus/workload.hpp"
#include "obs/histogram.hpp"

namespace ipd::bench {

/// Wall-clock seconds spent in fn().
template <typename Fn>
double time_seconds(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

/// Host capacity probe, the same busy loop as ipbench's
/// `host.thread_scaling`: iterations `threads` threads of a pure-ALU
/// loop complete in `seconds`, divided by what one thread completes. A
/// 4-vCPU host shared with other tenants reads anywhere from about 1x to
/// 4x, so it is printed beside every parallel speedup: a short speedup
/// on a host that reads 4x here is the code's, not the host's.
inline double thread_scaling(std::size_t threads, double seconds = 0.1) {
  const auto busy_rate = [seconds](std::size_t n) {
    std::atomic<bool> stop{false};
    std::vector<std::uint64_t> counts(n, 0);
    std::vector<std::thread> workers;
    for (std::size_t i = 0; i < n; ++i) {
      workers.emplace_back([&, i] {
        std::uint64_t x = i + 1;
        std::uint64_t loops = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          for (int k = 0; k < 4096; ++k) x = x * 6364136223846793005ull + 1;
          ++loops;
        }
        counts[i] = loops + (x == 0 ? 1 : 0);
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
    for (std::thread& t : workers) t.join();
    double total = 0;
    for (const std::uint64_t c : counts) total += static_cast<double>(c);
    return total;
  };
  const double one = busy_rate(1);
  return one > 0 ? busy_rate(threads) / one : 0.0;
}

/// The evaluation corpus shared by bench_table1 / bench_runtime /
/// bench_cycle_policies: ~100 version pairs of synthetic software
/// releases (DESIGN.md §5 substitution for the paper's GNU/BSD data).
inline std::vector<VersionPair> evaluation_corpus() {
  CorpusOptions options;
  options.seed = 0x19980625;  // PODC '98
  options.packages = 26;
  options.releases_per_package = 5;  // 26 * 4 = 104 pairs
  options.min_file_size = 24 << 10;
  options.max_file_size = 192 << 10;
  // Heavy release-to-release churn, calibrated so the delta compressor
  // lands in the paper's compression regime (deltas ~10-20% of the new
  // version) with block moves frequent enough to exercise cycles.
  options.edits_per_64k = 80;
  options.mutation_model.move_weight = 1.2;
  options.mutation_model.duplicate_weight = 1.0;
  options.mutation_model.max_edit_fraction = 0.03;
  options.mutation_model.length_scale = 96;
  return standard_corpus(options);
}

/// Distinct deterministic seed for repetition `rep` of a bench section.
/// Repetitions that reuse one literal seed replay the identical request
/// stream, which makes a warmed-by-repetition-1 cache answer
/// repetition 2 — warm-up becomes indistinguishable from measurement.
/// Thin alias for the shared core helper (core/rng.hpp) so the benches,
/// the store recovery matrix, and the campaign harness all derive
/// per-stream seeds the same way.
inline std::uint64_t repetition_seed(std::uint64_t base,
                                     std::uint64_t rep) noexcept {
  return derive_seed(base, rep);
}

inline void rule(char c = '-', int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar(c);
  std::putchar('\n');
}

/// Time fn() and record the elapsed nanoseconds into `histogram`.
/// The histogram is thread-safe, so every load thread records into the
/// same instance — no per-thread recorders, no merge step.
template <typename Fn>
void time_into(obs::Histogram& histogram, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  histogram.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count()));
}

/// "p50 420.1us  p95 1300.0us  p99 3870.5us" — one line for tables.
inline std::string latency_summary(const obs::Histogram& histogram) {
  return histogram.snapshot().latency_line();
}

}  // namespace ipd::bench
