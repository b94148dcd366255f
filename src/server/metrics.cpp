#include "server/metrics.hpp"

namespace ipd {

namespace {

std::uint64_t load(const std::atomic<std::uint64_t>& a) noexcept {
  return a.load(std::memory_order_relaxed);
}

}  // namespace

void ServiceMetrics::reset() noexcept {
#define IPD_RESET_COUNTER(name) name.store(0, std::memory_order_relaxed);
  IPD_SERVICE_COUNTERS(IPD_RESET_COUNTER)
#undef IPD_RESET_COUNTER
}

double ServiceMetrics::hit_rate() const noexcept {
  const std::uint64_t hits = load(cache_hits);
  const std::uint64_t lookups = hits + load(cache_misses);
  return lookups == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(lookups);
}

}  // namespace ipd
