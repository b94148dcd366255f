#include "obs/trace_merge.hpp"

#include <cctype>
#include <cstdio>
#include <map>
#include <memory>
#include <variant>

#include "obs/json.hpp"

namespace ipd::obs {

namespace {

// ---- minimal JSON --------------------------------------------------
// Just enough of a recursive-descent parser to read the trace documents
// this repo produces (and to reject anything malformed): objects,
// arrays, strings with the escapes we emit, numbers, true/false/null.

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string,
               std::shared_ptr<JsonArray>, std::shared_ptr<JsonObject>>
      v = nullptr;

  bool is_object() const {
    return std::holds_alternative<std::shared_ptr<JsonObject>>(v);
  }
  bool is_array() const {
    return std::holds_alternative<std::shared_ptr<JsonArray>>(v);
  }
  bool is_string() const { return std::holds_alternative<std::string>(v); }
  bool is_number() const { return std::holds_alternative<double>(v); }
  const JsonObject& object() const {
    return *std::get<std::shared_ptr<JsonObject>>(v);
  }
  const JsonArray& array() const {
    return *std::get<std::shared_ptr<JsonArray>>(v);
  }
  const std::string& string() const { return std::get<std::string>(v); }
  double number() const { return std::get<double>(v); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (p_ != end_) throw FormatError("json: trailing content");
    return v;
  }

 private:
  void skip_ws() {
    while (p_ != end_ && std::isspace(static_cast<unsigned char>(*p_))) ++p_;
  }
  char peek() {
    skip_ws();
    if (p_ == end_) throw FormatError("json: unexpected end of input");
    return *p_;
  }
  void expect(char c) {
    if (peek() != c) {
      throw FormatError(std::string("json: expected '") + c + "'");
    }
    ++p_;
  }

  JsonValue value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return JsonValue{string()};
      case 't': return keyword("true", JsonValue{true});
      case 'f': return keyword("false", JsonValue{false});
      case 'n': return keyword("null", JsonValue{nullptr});
      default: return number();
    }
  }

  JsonValue keyword(const char* word, JsonValue result) {
    for (const char* w = word; *w != '\0'; ++w, ++p_) {
      if (p_ == end_ || *p_ != *w) throw FormatError("json: bad literal");
    }
    return result;
  }

  JsonValue object() {
    expect('{');
    auto out = std::make_shared<JsonObject>();
    if (peek() == '}') {
      ++p_;
      return JsonValue{out};
    }
    for (;;) {
      if (peek() != '"') throw FormatError("json: object key must be string");
      std::string key = string();
      expect(':');
      (*out)[std::move(key)] = value();
      const char c = peek();
      ++p_;
      if (c == '}') return JsonValue{out};
      if (c != ',') throw FormatError("json: expected ',' or '}'");
    }
  }

  JsonValue array() {
    expect('[');
    auto out = std::make_shared<JsonArray>();
    if (peek() == ']') {
      ++p_;
      return JsonValue{out};
    }
    for (;;) {
      out->push_back(value());
      const char c = peek();
      ++p_;
      if (c == ']') return JsonValue{out};
      if (c != ',') throw FormatError("json: expected ',' or ']'");
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (p_ != end_ && *p_ != '"') {
      char c = *p_++;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (p_ == end_) break;
      const char esc = *p_++;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (p_ == end_) throw FormatError("json: bad \\u escape");
            const char h = *p_++;
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              throw FormatError("json: bad \\u escape");
          }
          // The traces we merge only escape control characters; encode
          // the code point as UTF-8 without surrogate handling.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: throw FormatError("json: unknown escape");
      }
    }
    if (p_ == end_) throw FormatError("json: unterminated string");
    ++p_;  // closing quote
    return out;
  }

  JsonValue number() {
    const char* start = p_;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    while (p_ != end_ &&
           (std::isdigit(static_cast<unsigned char>(*p_)) || *p_ == '.' ||
            *p_ == 'e' || *p_ == 'E' || *p_ == '-' || *p_ == '+')) {
      ++p_;
    }
    if (start == p_) throw FormatError("json: bad value");
    return JsonValue{std::stod(std::string(start, p_))};
  }

  const char* p_;
  const char* end_;
};

// ---- serialization -------------------------------------------------

void append_string(std::string* out, const std::string& text) {
  *out += '"';
  json_escape_into(out, text);
  *out += '"';
}

void append_number(std::string* out, double v) {
  char buf[48];
  if (v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.3f", v);
  }
  *out += buf;
}

void append_value(std::string* out, const JsonValue& v);

void append_object(std::string* out, const JsonObject& object) {
  *out += '{';
  bool first = true;
  for (const auto& [key, value] : object) {
    if (!first) *out += ',';
    first = false;
    append_string(out, key);
    *out += ':';
    append_value(out, value);
  }
  *out += '}';
}

void append_value(std::string* out, const JsonValue& v) {
  if (v.is_object()) {
    append_object(out, v.object());
  } else if (v.is_array()) {
    *out += '[';
    bool first = true;
    for (const JsonValue& item : v.array()) {
      if (!first) *out += ',';
      first = false;
      append_value(out, item);
    }
    *out += ']';
  } else if (v.is_string()) {
    append_string(out, v.string());
  } else if (v.is_number()) {
    append_number(out, v.number());
  } else if (std::holds_alternative<bool>(v.v)) {
    *out += std::get<bool>(v.v) ? "true" : "false";
  } else {
    *out += "null";
  }
}

/// One span's join point: where a flow arrow attaches.
struct JoinPoint {
  std::size_t process = 0;
  double ts = 0;
  double tid = 0;
};

const JsonValue* find(const JsonObject& object, const char* key) {
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

}  // namespace

std::string merge_traces(const std::vector<NamedTrace>& inputs,
                         MergeStats* stats) {
  MergeStats local;
  local.processes = inputs.size();

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& record) {
    if (!first) out += ',';
    first = false;
    out += record;
  };

  // trace id -> earliest span per process that carries it.
  std::map<std::string, std::map<std::size_t, JoinPoint>> joins;

  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::uint32_t pid = static_cast<std::uint32_t>(i + 1);
    const JsonValue doc = JsonParser(inputs[i].json).parse();
    if (!doc.is_object()) {
      throw FormatError("trace merge: input " + inputs[i].name +
                        " is not a JSON object");
    }
    const JsonValue* events = find(doc.object(), "traceEvents");
    if (events == nullptr || !events->is_array()) {
      throw FormatError("trace merge: input " + inputs[i].name +
                        " has no traceEvents array");
    }

    std::string meta = "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
                       std::to_string(pid) + ",\"args\":{\"name\":";
    append_string(&meta, inputs[i].name);
    meta += "}}";
    emit(meta);
    ++local.events;

    for (const JsonValue& event : events->array()) {
      if (!event.is_object()) {
        throw FormatError("trace merge: non-object trace event");
      }
      // Re-emit with this input's pid lane, preserving everything else.
      JsonObject relaned = event.object();
      relaned["pid"] = JsonValue{static_cast<double>(pid)};
      std::string record;
      append_object(&record, relaned);
      emit(record);
      ++local.events;

      const JsonValue* args = find(event.object(), "args");
      if (args == nullptr || !args->is_object()) continue;
      const JsonValue* trace = find(args->object(), "trace");
      if (trace == nullptr || !trace->is_string()) continue;
      const JsonValue* ts = find(event.object(), "ts");
      const JsonValue* tid = find(event.object(), "tid");
      JoinPoint point;
      point.process = i;
      point.ts = ts != nullptr && ts->is_number() ? ts->number() : 0;
      point.tid = tid != nullptr && tid->is_number() ? tid->number() : 0;
      auto& per_process = joins[trace->string()];
      const auto it = per_process.find(i);
      if (it == per_process.end() || point.ts < it->second.ts) {
        per_process[i] = point;
      }
    }
  }

  // Flow arrows: for every trace id seen by more than one process, start
  // at the earliest span of the first process and finish at the
  // earliest span of each later one.
  for (const auto& [trace_id, per_process] : joins) {
    if (per_process.size() < 2) continue;
    ++local.traces_joined;
    const JoinPoint& origin = per_process.begin()->second;
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"request\",\"cat\":\"trace\",\"ph\":\"s\","
                  "\"id\":\"%s\",\"pid\":%zu,\"tid\":%.0f,\"ts\":%.3f}",
                  trace_id.c_str(), origin.process + 1, origin.tid,
                  origin.ts);
    emit(buf);
    ++local.flow_events;
    for (auto it = std::next(per_process.begin()); it != per_process.end();
         ++it) {
      const JoinPoint& target = it->second;
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"request\",\"cat\":\"trace\",\"ph\":\"f\","
                    "\"bp\":\"e\",\"id\":\"%s\",\"pid\":%zu,\"tid\":%.0f,"
                    "\"ts\":%.3f}",
                    trace_id.c_str(), target.process + 1, target.tid,
                    target.ts);
      emit(buf);
      ++local.flow_events;
    }
  }

  out += "]}";
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace ipd::obs
