#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "core/rng.hpp"

namespace ipbench {

void Results::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failed <= 10) std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail tail(std::vector<double> values) {
  Tail t;
  t.samples = values.size();
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const std::size_t rank = n > 10 ? n - 10 : n;  // 1-based
  t.value = values[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return t;
}

Tail median_pass_tail(const std::vector<std::vector<double>>& passes) {
  std::vector<double> values, percentiles;
  std::size_t samples = 0;
  for (const std::vector<double>& pass : passes) {
    const Tail t = tail(pass);
    values.push_back(t.value);
    percentiles.push_back(t.percentile);
    samples += t.samples;
  }
  return Tail{median(values), median(percentiles), samples};
}

void BestOf::add(std::size_t op, double bytes, double seconds) {
  if (op >= best_s_.size()) {
    bytes_.resize(op + 1, 0.0);
    best_s_.resize(op + 1, 0.0);
  }
  bytes_[op] = bytes;
  if (best_s_[op] == 0.0 || seconds < best_s_[op]) best_s_[op] = seconds;
}

double BestOf::mb_per_s() const {
  double bytes = 0, seconds = 0;
  for (std::size_t i = 0; i < best_s_.size(); ++i) {
    bytes += bytes_[i];
    seconds += best_s_[i];
  }
  return ipbench::mb_per_s(bytes, seconds);
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

namespace {

/// Loop iterations one thread completes in `seconds`.
double busy_rate(std::size_t threads, double seconds) {
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> counts(threads, 0);
  std::vector<std::thread> workers;
  for (std::size_t i = 0; i < threads; ++i) {
    workers.emplace_back([&, i] {
      std::uint64_t x = i + 1;
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int k = 0; k < 4096; ++k) x = x * 6364136223846793005ull + 1;
        ++n;
      }
      counts[i] = n + (x == 0 ? 1 : 0);
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& t : workers) t.join();
  double total = 0;
  for (const std::uint64_t c : counts) total += static_cast<double>(c);
  return total;
}

}  // namespace

double thread_scaling(std::size_t threads) {
  const double one = busy_rate(1, 0.1);
  const double many = busy_rate(threads, 0.1);
  return one > 0 ? many / one : 0.0;
}

std::size_t host_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::vector<std::size_t> shuffled_indices(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  ipd::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  return order;
}

bool same_bytes(ipd::ByteView a, ipd::ByteView b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

ipd::Bytes chunked_image(std::uint64_t seed, std::size_t size,
                         std::size_t chunk,
                         const std::vector<ipd::FileProfile>& profiles) {
  ipd::Bytes image;
  image.reserve(size);
  for (std::uint64_t k = 0; image.size() < size; ++k) {
    ipd::Rng rng(ipd::derive_seed(seed, k));
    const ipd::Bytes piece =
        ipd::generate_file(rng, chunk, profiles[k % profiles.size()]);
    image.insert(image.end(), piece.begin(), piece.end());
  }
  image.resize(size);
  return image;
}

}  // namespace ipbench
