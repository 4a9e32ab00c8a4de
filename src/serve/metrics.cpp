#include "serve/metrics.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "common/error.hpp"

namespace imrdmd::serve {

namespace {

void append_escaped(std::string& out, const std::string& text) {
  for (char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

void append_value(std::string& out, double value) {
  // OpenMetrics spells the non-finite values out; finite values use the
  // shortest round-trip form (same discipline as JsonWriter) so unchanged
  // state renders byte-identically scrape to scrape.
  if (std::isnan(value)) {
    out += "NaN";
    return;
  }
  if (std::isinf(value)) {
    out += value > 0 ? "+Inf" : "-Inf";
    return;
  }
  char buffer[32];
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, result.ptr);
}

}  // namespace

std::string render_labels(const MetricLabels& labels) {
  if (labels.empty()) return "";
  MetricLabels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string out = "{";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) out += ',';
    out += sorted[i].first;
    out += "=\"";
    append_escaped(out, sorted[i].second);
    out += '"';
  }
  out += '}';
  return out;
}

MetricsRegistry::Family& MetricsRegistry::touch(const std::string& name,
                                                Kind kind,
                                                const std::string& help) {
  auto [it, created] = families_.try_emplace(name);
  if (created) {
    it->second.kind = kind;
    it->second.help = help;
  } else {
    IMRDMD_REQUIRE_ARG(it->second.kind == kind,
                       "metric family '" + name +
                           "' already registered with the other type");
  }
  return it->second;
}

void MetricsRegistry::counter_add(const std::string& name,
                                  const MetricLabels& labels, double delta,
                                  const std::string& help) {
  IMRDMD_REQUIRE_ARG(delta >= 0.0,
                     "counter_add(" + name + "): negative delta");
  std::lock_guard<std::mutex> lock(mutex_);
  touch(name, Kind::Counter, help).series[render_labels(labels)] += delta;
}

void MetricsRegistry::gauge_set(const std::string& name,
                                const MetricLabels& labels, double value,
                                const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  touch(name, Kind::Gauge, help).series[render_labels(labels)] = value;
}

double MetricsRegistry::value(const std::string& name,
                              const MetricLabels& labels) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto family = families_.find(name);
  if (family == families_.end()) return 0.0;
  const auto series = family->second.series.find(render_labels(labels));
  return series == family->second.series.end() ? 0.0 : series->second;
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  families_.clear();
}

std::string MetricsRegistry::render_openmetrics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& [name, family] : families_) {
    out += "# TYPE ";
    out += name;
    out += family.kind == Kind::Counter ? " counter\n" : " gauge\n";
    if (!family.help.empty()) {
      out += "# HELP ";
      out += name;
      out += ' ';
      append_escaped(out, family.help);
      out += '\n';
    }
    for (const auto& [labels, value] : family.series) {
      out += name;
      out += labels;
      out += ' ';
      append_value(out, value);
      out += '\n';
    }
  }
  out += "# EOF\n";
  return out;
}

}  // namespace imrdmd::serve
