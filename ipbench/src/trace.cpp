#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace ipbench {

namespace {

thread_local std::uint32_t t_current_span = 0;
thread_local std::uint32_t t_current_op = 0;

}  // namespace

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint32_t Tracer::begin_op(const char* kind) {
  const std::lock_guard lock(mutex_);
  const auto id = static_cast<std::uint32_t>(ops_.size() + 1);
  ops_.push_back(OpRecord{id, kind});
  return id;
}

void Tracer::record(const SpanRecord& span) {
  const std::lock_guard lock(mutex_);
  spans_.push_back(span);
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard lock(mutex_);
  return spans_;
}

void Tracer::clear() {
  const std::lock_guard lock(mutex_);
  spans_.clear();
  ops_.clear();
}

bool Tracer::write_json(const std::string& path) const {
  const std::lock_guard lock(mutex_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::uint64_t origin = UINT64_MAX;
  for (const SpanRecord& s : spans_) origin = std::min(origin, s.start_ns);
  if (spans_.empty()) origin = 0;
  std::fprintf(out, "{\"ops\": [");
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    std::fprintf(out, "%s\n  {\"id\": %u, \"kind\": \"%s\"}", i ? "," : "",
                 ops_[i].id, ops_[i].kind);
  }
  std::fprintf(out, "],\n\"spans\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(out,
                 "%s\n  {\"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": "
                 "%llu, \"id\": %u, \"parent\": %u, \"op\": %u}",
                 i ? "," : "", s.name,
                 static_cast<unsigned long long>(s.start_ns - origin),
                 static_cast<unsigned long long>(s.end_ns - origin), s.id,
                 s.parent, s.op);
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

OpScope::OpScope(const char* kind) : saved_op_(t_current_op) {
  Tracer& tracer = Tracer::instance();
  t_current_op = tracer.enabled() ? tracer.begin_op(kind) : 0;
}

OpScope::~OpScope() { t_current_op = saved_op_; }

Span::Span(const char* name) noexcept {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  active_ = true;
  record_.name = name;
  record_.id = tracer.next_span_id();
  record_.parent = t_current_span;
  record_.op = t_current_op;
  t_current_span = record_.id;
  record_.start_ns = now_ns();
}

Span::~Span() {
  if (!active_) return;
  record_.end_ns = now_ns();
  t_current_span = record_.parent;
  Tracer::instance().record(record_);
}

double SpanSummary::median_ms(const std::string& name) const {
  std::vector<std::uint64_t> values;
  for (const auto& [op, totals] : per_op) {
    const auto it = totals.find(name);
    if (op != 0 && it != totals.end()) values.push_back(it->second);
  }
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const double mid = n % 2 == 1 ? static_cast<double>(values[n / 2])
                                : 0.5 * static_cast<double>(values[n / 2 - 1] +
                                                            values[n / 2]);
  return mid / 1e6;
}

SpanSummary summarize(const std::vector<SpanRecord>& spans) {
  SpanSummary summary;
  std::map<std::uint32_t, std::uint64_t> child_ns;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  for (const SpanRecord& s : spans) {
    const std::uint64_t duration = s.end_ns - s.start_ns;
    const auto child = child_ns.find(s.id);
    const std::uint64_t children = child == child_ns.end() ? 0 : child->second;
    const std::uint64_t self = duration > children ? duration - children : 0;
    const std::string name = s.name;
    summary.per_op[s.op][name] += duration;
    summary.total_ns[name] += duration;
    summary.self_ns[name] += self;
    summary.calls[name] += 1;
    summary.layer_self_ns[name.substr(0, name.find('.'))] += self;
  }
  return summary;
}

}  // namespace ipbench
