#include "obs/flight_recorder.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>

#include "core/sync.hpp"
#include "obs/json.hpp"

namespace ipd::obs {

namespace {

thread_local FlightRecorder* t_active = nullptr;

/// Registry of dumped flights. Heap-allocated, never destroyed: dumps
/// often happen on failure paths racing process teardown.
struct DumpRegistry {
  Mutex mutex{"FlightDumps"};
  std::deque<FlightDump> dumps GUARDED_BY(mutex);
  std::uint64_t sequence GUARDED_BY(mutex) = 0;
  std::string dir GUARDED_BY(mutex);
  bool dir_initialized GUARDED_BY(mutex) = false;
};

constexpr std::size_t kMaxDumps = 32;

DumpRegistry& registry() {
  static DumpRegistry* r = new DumpRegistry;
  return *r;
}

void copy_detail(char (&dst)[FlightRecorder::kDetailBytes],
                 std::string_view src) noexcept {
  const std::size_t n =
      src.size() < sizeof dst - 1 ? src.size() : sizeof dst - 1;
  // An empty string_view may carry a null data(), which memcpy must not
  // see even for a zero-byte copy.
  if (n != 0) std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

/// Best-effort file write; a dump must never turn a failure path into a
/// second failure.
void write_best_effort(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return;
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
}

}  // namespace

FlightRecorder::FlightRecorder(std::string label, TraceContext ctx)
    : label_(std::move(label)), ctx_(ctx) {
  ring_.resize(kMaxEntries);
}

FlightRecorder::Entry& FlightRecorder::next_slot() noexcept {
  Entry& slot = ring_[static_cast<std::size_t>(total_ % kMaxEntries)];
  ++total_;
  return slot;
}

void FlightRecorder::note_span(Stage stage, std::uint64_t start_ns,
                               std::uint64_t dur_ns,
                               std::uint64_t bytes) noexcept {
  Entry& e = next_slot();
  e.kind = Kind::kSpan;
  e.code = static_cast<std::uint8_t>(stage);
  e.ns = start_ns;
  e.a = dur_ns;
  e.b = bytes;
  e.detail[0] = '\0';
}

void FlightRecorder::note_event(EventType type, std::uint64_t a,
                                std::uint64_t b,
                                std::string_view detail) noexcept {
  Entry& e = next_slot();
  e.kind = Kind::kEvent;
  e.code = static_cast<std::uint8_t>(type);
  e.ns = now_ns();
  e.a = a;
  e.b = b;
  copy_detail(e.detail, detail);
}

void FlightRecorder::note(std::string_view text) noexcept {
  Entry& e = next_slot();
  e.kind = Kind::kNote;
  e.code = 0;
  e.ns = now_ns();
  e.a = 0;
  e.b = 0;
  copy_detail(e.detail, text);
}

void FlightRecorder::render_entry(const Entry& e, std::string* out) const {
  char line[192];
  switch (e.kind) {
    case Kind::kSpan:
      std::snprintf(line, sizeof line,
                    "  +%10.3fs span  %-14s %.3f ms  %llu bytes\n",
                    static_cast<double>(e.ns) / 1e9,
                    stage_name(static_cast<Stage>(e.code)),
                    static_cast<double>(e.a) / 1e6,
                    static_cast<unsigned long long>(e.b));
      break;
    case Kind::kEvent:
      std::snprintf(line, sizeof line,
                    "  +%10.3fs event %-14s a=%llu b=%llu %s\n",
                    static_cast<double>(e.ns) / 1e9,
                    event_type_name(static_cast<EventType>(e.code)),
                    static_cast<unsigned long long>(e.a),
                    static_cast<unsigned long long>(e.b), e.detail);
      break;
    case Kind::kNote:
      std::snprintf(line, sizeof line, "  +%10.3fs note  %s\n",
                    static_cast<double>(e.ns) / 1e9, e.detail);
      break;
  }
  *out += line;
}

std::string FlightRecorder::dump_text() const {
  std::string out = "flight " + label_;
  if (ctx_.valid()) out += "  trace " + ctx_.trace_id_hex();
  out += "  (" + std::to_string(total_) + " entries";
  if (total_ > kMaxEntries) {
    out += ", oldest " + std::to_string(total_ - kMaxEntries) + " dropped";
  }
  out += ")\n";
  const std::uint64_t resident =
      total_ < kMaxEntries ? total_ : std::uint64_t{kMaxEntries};
  for (std::uint64_t i = 0; i < resident; ++i) {
    const std::uint64_t index =
        total_ <= kMaxEntries ? i : (total_ + i) % kMaxEntries;
    render_entry(ring_[static_cast<std::size_t>(index)], &out);
  }
  return out;
}

std::string FlightRecorder::dump_json(std::string_view reason) const {
  std::string out = "{\"trace_id\":\"";
  if (ctx_.valid()) out += ctx_.trace_id_hex();
  out += "\",\"span_id\":\"";
  if (ctx_.valid()) out += ctx_.span_id_hex();
  out += "\",\"label\":\"";
  json_escape_into(&out, label_);
  out += "\",\"reason\":\"";
  json_escape_into(&out, reason);
  out += "\",\"recorded\":" + std::to_string(total_) + ",\"entries\":[";
  const std::uint64_t resident =
      total_ < kMaxEntries ? total_ : std::uint64_t{kMaxEntries};
  char buf[160];
  for (std::uint64_t i = 0; i < resident; ++i) {
    const std::uint64_t index =
        total_ <= kMaxEntries ? i : (total_ + i) % kMaxEntries;
    const Entry& e = ring_[static_cast<std::size_t>(index)];
    if (i != 0) out += ',';
    const char* kind = e.kind == Kind::kSpan    ? "span"
                       : e.kind == Kind::kEvent ? "event"
                                                : "note";
    const char* name = e.kind == Kind::kSpan
                           ? stage_name(static_cast<Stage>(e.code))
                       : e.kind == Kind::kEvent
                           ? event_type_name(static_cast<EventType>(e.code))
                           : "";
    std::snprintf(buf, sizeof buf,
                  "{\"kind\":\"%s\",\"name\":\"%s\",\"ns\":%llu,"
                  "\"a\":%llu,\"b\":%llu,\"detail\":\"",
                  kind, name, static_cast<unsigned long long>(e.ns),
                  static_cast<unsigned long long>(e.a),
                  static_cast<unsigned long long>(e.b));
    out += buf;
    json_escape_into(&out, e.detail);
    out += "\"}";
  }
  out += "]}";
  return out;
}

FlightScope::FlightScope(FlightRecorder& recorder) noexcept
    : saved_(t_active) {
  t_active = &recorder;
}

FlightScope::~FlightScope() { t_active = saved_; }

FlightRecorder* active_flight_recorder() noexcept { return t_active; }

void dump_flight(const FlightRecorder& recorder, std::string_view reason) {
  FlightDump dump;
  if (recorder.context().valid()) {
    dump.trace_id = recorder.context().trace_id_hex();
  }
  dump.label = recorder.label();
  dump.reason = std::string(reason);
  dump.text = recorder.dump_text();
  dump.json = recorder.dump_json(reason);

  DumpRegistry& r = registry();
  std::string dir;
  std::uint64_t seq = 0;
  {
    const MutexLock lock(r.mutex);
    if (!r.dir_initialized) {
      r.dir_initialized = true;
      if (const char* env = std::getenv("IPDELTA_FLIGHT_DIR")) r.dir = env;
    }
    seq = ++r.sequence;
    r.dumps.push_back(dump);
    while (r.dumps.size() > kMaxDumps) r.dumps.pop_front();
    dir = r.dir;
  }
  if (!dir.empty()) {
    const std::string stem =
        dir + "/flight-" +
        (dump.trace_id.empty() ? "untraced" : dump.trace_id) + "-" +
        std::to_string(seq);
    write_best_effort(stem + ".txt", dump.text);
    write_best_effort(stem + ".json", dump.json);
  }
}

std::vector<FlightDump> flight_dumps() {
  DumpRegistry& r = registry();
  const MutexLock lock(r.mutex);
  return std::vector<FlightDump>(r.dumps.begin(), r.dumps.end());
}

void clear_flight_dumps() {
  DumpRegistry& r = registry();
  const MutexLock lock(r.mutex);
  r.dumps.clear();
}

void set_flight_dump_dir(std::string dir) {
  DumpRegistry& r = registry();
  const MutexLock lock(r.mutex);
  r.dir = std::move(dir);
  r.dir_initialized = true;
}

}  // namespace ipd::obs
