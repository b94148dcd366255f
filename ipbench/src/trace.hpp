// In-memory span recorder for the benchmark's traced run.
//
// Spans are opened in the benchmark's own code around each call into a
// layer's public function ("delta.diff_parallel", "store.body", ...).
// Each records its start, end, parent span and the id of the operation
// (pair, image, update, publish, reconstruct) it belongs to, so the
// per-layer self time can be computed after the run. Nothing is written
// while the run is measured; write_json() dumps the buffer at the end.
//
// When tracing is off a Span costs one relaxed load, so the untraced run
// times the same code path.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ipbench {

struct SpanRecord {
  const char* name = "";  ///< "layer.function"; static storage
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root of its operation
  std::uint32_t op = 0;      ///< 0 = outside any operation
};

struct OpRecord {
  std::uint32_t id = 0;
  const char* kind = "";  ///< "pair", "image", "update", ...
};

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  std::uint32_t next_span_id() noexcept {
    return span_ids_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint32_t begin_op(const char* kind);
  void record(const SpanRecord& span);

  std::vector<SpanRecord> spans() const;
  void clear();

  /// {"ops": [...], "spans": [...]} with times in ns since the first span.
  bool write_json(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> span_ids_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::vector<OpRecord> ops_;
};

/// Marks the calling thread's work as one operation until destroyed.
/// Ops are numbered only while tracing is on.
class OpScope {
 public:
  explicit OpScope(const char* kind);
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  std::uint32_t saved_op_ = 0;
};

/// RAII span. Records nothing unless tracing is on.
class Span {
 public:
  explicit Span(const char* name) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecord record_;
  bool active_ = false;
};

/// Run fn() inside a span named `name`; returns fn()'s result.
template <typename Fn>
decltype(auto) traced(const char* name, Fn&& fn) {
  Span span(name);
  return fn();
}

std::uint64_t now_ns() noexcept;

/// Per-run aggregation of a span buffer.
struct SpanSummary {
  /// Total ns of each span name, per op id.
  std::map<std::uint32_t, std::map<std::string, std::uint64_t>> per_op;
  /// Total and self ns per span name over the whole run.
  std::map<std::string, std::uint64_t> total_ns;
  std::map<std::string, std::uint64_t> self_ns;
  std::map<std::string, std::uint64_t> calls;
  /// Self ns per layer (the part of a name before the first '.').
  std::map<std::string, std::uint64_t> layer_self_ns;

  /// Median over the ops that called `name` of its per-op total, in ms;
  /// 0 when no op called it.
  double median_ms(const std::string& name) const;
};

SpanSummary summarize(const std::vector<SpanRecord>& spans);

}  // namespace ipbench
