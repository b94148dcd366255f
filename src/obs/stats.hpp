// Prometheus-style text exposition for counters, gauges and histograms.
//
// The renderer is deliberately dumb: metric sets reach it through
// render_metric_set() (obs/metric_set.hpp), other series (cache gauges,
// stage totals) through direct calls, and the renderer only owns the
// format. That keeps obs/ free of dependencies on the subsystems it
// observes, and makes "every registered metric appears in the output"
// checkable by re-running the same visit over the rendered text, which
// is exactly what the CI smoke gate does.
//
// Every series is "ipdelta_" + the name it is given; a set rendered
// under a prefix passes that prefix as part of the name ("store_" +
// "verify_rejects"), so the # TYPE dedup compares the whole series name
// and two sets' same-named metrics stay apart.
//
// Output shape (prefix "ipdelta_"):
//
//   # TYPE ipdelta_requests counter
//   ipdelta_requests 1234
//   # TYPE ipdelta_serve_ns summary
//   ipdelta_serve_ns{quantile="0.5"} 417
//   ipdelta_serve_ns{quantile="0.9"} 1234
//   ipdelta_serve_ns{quantile="0.99"} 56789
//   ipdelta_serve_ns_sum 123456
//   ipdelta_serve_ns_count 789
//   # TYPE ipdelta_stage_ns counter
//   ipdelta_stage_ns{stage="diff"} 42
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/histogram.hpp"

namespace ipd::obs {

class PrometheusRenderer {
 public:
  void counter(std::string_view name, std::uint64_t value);
  /// Labeled counter series; the # TYPE line is emitted once per name.
  void counter(std::string_view name, std::string_view label_key,
               std::string_view label_value, std::uint64_t value);
  void gauge(std::string_view name, std::uint64_t value);
  /// Summary with p50/p90/p99 quantiles plus _sum and _count.
  void histogram(std::string_view name, const HistogramSnapshot& snap);

  const std::string& str() const noexcept { return out_; }

 private:
  void type_line(std::string_view name, const char* type);

  std::string out_;
  std::string last_typed_;  ///< dedup # TYPE for labeled series
};

}  // namespace ipd::obs
