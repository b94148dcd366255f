#include "obs/stats.hpp"

#include <cstdio>

namespace ipd::obs {

namespace {

constexpr std::string_view kPrefix = "ipdelta_";

void append_value(std::string& out, std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu",
                static_cast<unsigned long long>(value));
  out += buf;
}

}  // namespace

void PrometheusRenderer::type_line(std::string_view name, const char* type) {
  if (last_typed_ == name) return;
  last_typed_ = name;
  out_ += "# TYPE ";
  out_ += kPrefix;
  out_ += name;
  out_ += ' ';
  out_ += type;
  out_ += '\n';
}

void PrometheusRenderer::counter(std::string_view name, std::uint64_t value) {
  type_line(name, "counter");
  out_ += kPrefix;
  out_ += name;
  out_ += ' ';
  append_value(out_, value);
  out_ += '\n';
}

void PrometheusRenderer::counter(std::string_view name,
                                 std::string_view label_key,
                                 std::string_view label_value,
                                 std::uint64_t value) {
  type_line(name, "counter");
  out_ += kPrefix;
  out_ += name;
  out_ += '{';
  out_ += label_key;
  out_ += "=\"";
  out_ += label_value;
  out_ += "\"} ";
  append_value(out_, value);
  out_ += '\n';
}

void PrometheusRenderer::gauge(std::string_view name, std::uint64_t value) {
  type_line(name, "gauge");
  out_ += kPrefix;
  out_ += name;
  out_ += ' ';
  append_value(out_, value);
  out_ += '\n';
}

void PrometheusRenderer::histogram(std::string_view name,
                                   const HistogramSnapshot& snap) {
  type_line(name, "summary");
  static constexpr struct {
    const char* label;
    double q;
  } kQuantiles[] = {{"0.5", 0.5}, {"0.9", 0.9}, {"0.99", 0.99}};
  char buf[64];
  for (const auto& quantile : kQuantiles) {
    out_ += kPrefix;
    out_ += name;
    std::snprintf(buf, sizeof buf, "{quantile=\"%s\"} %.0f\n", quantile.label,
                  snap.quantile(quantile.q));
    out_ += buf;
  }
  out_ += kPrefix;
  out_ += name;
  out_ += "_sum ";
  append_value(out_, snap.sum);
  out_ += '\n';
  out_ += kPrefix;
  out_ += name;
  out_ += "_count ";
  append_value(out_, snap.count);
  out_ += '\n';
}

}  // namespace ipd::obs
