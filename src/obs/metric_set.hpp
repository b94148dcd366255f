// One metric-set generator: every registry in the program (the service's
// counters and histograms, the artifact store's) is a struct whose body
// is one IPD_METRIC_SET line over two X-lists, one of counters and one
// of histograms:
//
//   #define MY_COUNTERS(X)   X(requests) X(bytes_served)
//   #define MY_HISTOGRAMS(X) X(serve_ns)
//   struct MyMetrics { IPD_METRIC_SET(MY_COUNTERS, MY_HISTOGRAMS) };
//
// From those lines the generator declares the members (a relaxed
// std::atomic<std::uint64_t> per counter, an obs::Histogram per
// histogram), one visit() over both kinds in list order, and a reset()
// that clears both. render_metric_set() is the one way a set reaches an
// exposition, so a metric cannot be declared and then missed by the
// output or by reset(). A set with only one kind passes IPD_NO_METRICS
// for the other list.
//
// Hot paths touch the members directly (fetch_add / record); nothing
// here runs per event.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

#include "obs/histogram.hpp"
#include "obs/stats.hpp"

namespace ipd::obs {

inline void reset_metric(std::atomic<std::uint64_t>& counter) noexcept {
  counter.store(0, std::memory_order_relaxed);
}
inline void reset_metric(Histogram& histogram) noexcept { histogram.reset(); }

/// The Prometheus type a visited member renders as.
constexpr const char* metric_type(const std::atomic<std::uint64_t>&) noexcept {
  return "counter";
}
constexpr const char* metric_type(const Histogram&) noexcept {
  return "summary";
}

/// Render every member of `set` into `r` as `<prefix><name>`, in list
/// order: counters first, then histogram summaries.
template <typename Set>
void render_metric_set(PrometheusRenderer& r, std::string_view prefix,
                       const Set& set) {
  std::string series;
  set.visit([&](const char* name, const auto& metric) {
    series.assign(prefix).append(name);
    if constexpr (std::is_same_v<std::decay_t<decltype(metric)>, Histogram>) {
      r.histogram(series, metric.snapshot());
    } else {
      r.counter(series, metric.load(std::memory_order_relaxed));
    }
  });
}

}  // namespace ipd::obs

/// An empty X-list, for a set with no counters or no histograms.
#define IPD_NO_METRICS(X)

#define IPD_METRIC_COUNTER_MEMBER(name) std::atomic<std::uint64_t> name{0};
#define IPD_METRIC_HISTOGRAM_MEMBER(name) ::ipd::obs::Histogram name;
#define IPD_METRIC_VISIT(name) fn(#name, name);
#define IPD_METRIC_RESET(name) ::ipd::obs::reset_metric(name);

/// Members, visit(fn) — fn(const char* name, const member&) over the
/// counters, then the histograms — and reset(), all from the two lists.
#define IPD_METRIC_SET(COUNTERS, HISTOGRAMS)                   \
  COUNTERS(IPD_METRIC_COUNTER_MEMBER)                          \
  HISTOGRAMS(IPD_METRIC_HISTOGRAM_MEMBER)                      \
  template <typename Fn>                                       \
  void visit(Fn&& fn) const {                                  \
    COUNTERS(IPD_METRIC_VISIT) HISTOGRAMS(IPD_METRIC_VISIT)    \
  }                                                            \
  void reset() noexcept {                                      \
    COUNTERS(IPD_METRIC_RESET) HISTOGRAMS(IPD_METRIC_RESET)    \
  }
