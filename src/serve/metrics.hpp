// Metrics for the serving layer: a small thread-safe registry of labeled
// counter/gauge series plus an OpenMetrics text-format renderer — the
// exposition format Prometheus scrapes (served by serve/http_exporter.hpp
// at GET /metrics).
//
// Model (a deliberately tiny subset of the OpenMetrics data model): a
// *family* is a named metric with a type and help string; a *series* is
// one (family, label set) pair carrying a double value. Counters are
// monotonically non-decreasing (add() rejects negative deltas); gauges are
// set to arbitrary values. Families and series are created on first touch,
// and the renderer emits them in deterministic (name, then label) order so
// successive scrapes of unchanged state are byte-identical.
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace imrdmd::serve {

/// One metric's label set, e.g. {{"tenant", "frontier"}}. Order is
/// irrelevant (series identity uses the sorted form).
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Thread-safe registry of counter/gauge families. All mutation and
/// rendering synchronizes on one internal mutex — scrape rates are a few
/// per second and update rates a few per chunk, so contention is not a
/// concern at this layer.
class MetricsRegistry {
 public:
  /// Adds `delta` (>= 0; InvalidArgument otherwise) to the counter series
  /// `name{labels}`, creating the family and series on first touch. By
  /// OpenMetrics convention counter names should end in "_total";
  /// `help` is recorded on first touch of the family.
  void counter_add(const std::string& name, const MetricLabels& labels,
                   double delta, const std::string& help = "");

  /// Sets the gauge series `name{labels}` to `value`, creating the family
  /// and series on first touch.
  void gauge_set(const std::string& name, const MetricLabels& labels,
                 double value, const std::string& help = "");

  /// Current value of series `name{labels}`, or 0 when it does not exist
  /// (reading a series never creates it).
  double value(const std::string& name, const MetricLabels& labels) const;

  /// Drops every family and series (a fresh registry).
  void clear();

  /// Renders the whole registry as OpenMetrics text: per family a
  /// "# TYPE"/"# HELP" header then one line per series, families in name
  /// order and series in label order, terminated by "# EOF\n". Values use
  /// shortest-round-trip formatting, so a scrape of unchanged state is
  /// byte-identical.
  std::string render_openmetrics() const;

 private:
  enum class Kind { Counter, Gauge };
  struct Family {
    Kind kind = Kind::Counter;
    std::string help;
    /// Keyed by the canonical rendered label string ("" for label-less).
    std::map<std::string, double> series;
  };

  Family& touch(const std::string& name, Kind kind, const std::string& help);

  mutable std::mutex mutex_;
  std::map<std::string, Family> families_;
};

/// The canonical label rendering: sorted by key, each value escaped per
/// OpenMetrics ('\\', '"', and newline), e.g. `{tenant="a",rack="r0"}` —
/// empty string for an empty label set. Exposed for tests.
std::string render_labels(const MetricLabels& labels);

}  // namespace imrdmd::serve
