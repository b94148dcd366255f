// Shared plumbing of the benchmark: run options, metric collection,
// correctness accounting, sample statistics and host probes.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "corpus/generator.hpp"

namespace ipbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;  ///< where the traced run writes its spans
  std::string work_dir = ".bench_build/work";  ///< scratch files (store)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything a workload reports. End-to-end metrics come from the
/// untraced run; per-layer metrics from the traced run.
struct Results {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::uint64_t attempted = 0;  ///< operations whose output was checked
  std::uint64_t failed = 0;     ///< ... and did not match

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  /// Count one checked operation; a mismatch is counted and described.
  void check(bool ok, const std::string& what);
};

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

template <typename Fn>
double time_s(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return seconds_between(start, Clock::now());
}

double median(std::vector<double> values);

/// The highest percentile with at least ten samples above it: the
/// sample with exactly ten above it (the maximum below 11 samples).
struct Tail {
  double value = 0;
  double percentile = 100;
  std::size_t samples = 0;
};
Tail tail(std::vector<double> values);

/// Median over passes of each pass's tail(), so one pass hit by the
/// shared host does not set the tail of the run.
Tail median_pass_tail(const std::vector<std::vector<double>>& passes);

/// Best-of-N throughput: each operation's fastest time across the run's
/// passes, then sum(bytes) / sum(fastest seconds). A shared host only
/// ever adds time, so the fastest repetition of an operation is the
/// steadiest estimate of what the code costs.
class BestOf {
 public:
  void add(std::size_t op, double bytes, double seconds);
  double mb_per_s() const;
  /// Each operation's fastest seconds, indexed by op.
  const std::vector<double>& seconds() const { return best_s_; }

 private:
  std::vector<double> bytes_;
  std::vector<double> best_s_;
};

/// Bytes per microsecond == MB/s (10^6 bytes per second).
inline double mb_per_s(double bytes, double seconds) {
  return seconds > 0 ? bytes / seconds / 1e6 : 0.0;
}

/// Process CPU time (user + system, every thread) in seconds.
double process_cpu_s();

/// Raw std::thread busy-loop probe: aggregate loop rate at `threads`
/// threads over the rate at one thread. Tells "the code does not scale"
/// apart from "the host gave no cores".
double thread_scaling(std::size_t threads);

std::size_t host_threads();

/// Deterministic shuffle of [0, n).
std::vector<std::size_t> shuffled_indices(std::size_t n, std::uint64_t seed);

bool same_bytes(ipd::ByteView a, ipd::ByteView b);

/// An image of `size` bytes made of `chunk`-byte pieces, each from its
/// own seed derived from `seed`, with profiles taken from `profiles` in
/// turn. The generator's output differs in kind from seed to seed (one
/// 12 MiB binary seed diffs into 4k copies, another into 170k), so one
/// image per seed would make every metric depend on the seed; many
/// independently seeded pieces average that out.
ipd::Bytes chunked_image(std::uint64_t seed, std::size_t size,
                         std::size_t chunk,
                         const std::vector<ipd::FileProfile>& profiles);

/// Set-up repetitions per run (see timed_setup); setup_s is their median.
inline constexpr std::size_t kMinSetupRepetitions = 3;
inline constexpr std::size_t kMaxSetupRepetitions = 40;
inline constexpr double kSetupBudgetS = 3.0;

}  // namespace ipbench
