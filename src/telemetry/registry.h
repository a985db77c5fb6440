// Typed metrics registry: the scrape surface of the telemetry pipeline.
//
// Simulation components register named instruments once (at deployment
// time) and the TelemetryPipeline samples every instrument at a fixed
// sim-time cadence. Three instrument kinds:
//
//   Counter — monotone cumulative count, owned by the registry; the
//             producer holds the returned pointer and increments it.
//   Gauge   — sampled-on-scrape value via a callback (queue depth,
//             utilization, resident GB, ...). Callbacks must be pure
//             reads: they run during the scrape and must not mutate
//             simulation state or consume randomness.
//   Summary — rolling-window quantile sketch (metrics/sketch.h) fed by
//             the producer; the scrape reads configured quantiles and
//             the window then resets for the next interval.
//
// Metric names follow the Prometheus convention with labels embedded in
// the name string (e.g. `node_queue_depth{node="3"}`); the registry is
// keyed by the full name, registration order is irrelevant, and all
// iteration is in lexicographic name order, so emitted output is
// deterministic. Names must be unique; registering a duplicate is a
// programming error (crashes via PROTEAN_CHECK).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "metrics/sketch.h"

namespace protean::telemetry {

/// Monotone cumulative counter. Produced by MetricsRegistry::counter();
/// pointer stays valid for the registry's lifetime.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Windowed quantile summary. The producer calls observe(); each scrape
/// reads the configured quantiles over the observations since the last
/// scrape, then the window resets. Also keeps a cumulative count so the
/// exposition can emit `_count`/`_sum` like a Prometheus summary.
class Summary {
 public:
  explicit Summary(double alpha) : window_(alpha) {}

  void observe(double value) {
    window_.add(value);
    ++total_count_;
    total_sum_ += value;
  }

  const metrics::QuantileSketch& window() const noexcept { return window_; }
  std::uint64_t total_count() const noexcept { return total_count_; }
  double total_sum() const noexcept { return total_sum_; }
  void reset_window() { window_.clear(); }

 private:
  metrics::QuantileSketch window_;
  std::uint64_t total_count_ = 0;
  double total_sum_ = 0.0;
};

class MetricsRegistry {
 public:
  using GaugeFn = std::function<double()>;

  /// Registers a counter; the returned pointer is how the producer
  /// increments it. Never null.
  Counter* counter(const std::string& name);

  /// Registers a sampled gauge. The callback runs at every scrape.
  void gauge(const std::string& name, GaugeFn fn);

  /// Registers a rolling-window quantile summary with the given
  /// relative-error bound and quantiles to expose (e.g. {0.5, 0.95, 0.99}).
  Summary* summary(const std::string& name, double alpha,
                   std::vector<double> quantiles);

  /// Bumped whenever the instrument set changes. Consumers key caches of
  /// name-derived artifacts (pre-escaped JSON keys, ...) on it.
  std::uint64_t plan_version();

  /// Sample names in scrape order (name order), stable between
  /// registration changes. Summary instruments expand to quantile-labelled
  /// entries (a `quantile` label merged into any existing label block) plus
  /// `_count`/`_sum` samples (suffix applied to the base name, labels
  /// preserved).
  const std::vector<std::string>& sample_names();

  /// Allocation-free scrape: overwrites `out` with the values aligned
  /// with sample_names(), then resets every summary window. An empty
  /// summary window yields quantiles of 0.
  void scrape_values(std::vector<double>* out);

  /// Base metric name -> OpenMetrics type string ("counter", "gauge",
  /// "summary") over every registered instrument. Used by the exposition
  /// writer for `# TYPE` lines.
  std::map<std::string, std::string> type_map() const;

 private:
  struct SummaryEntry {
    std::unique_ptr<Summary> summary;
    std::vector<double> quantiles;
  };

  // Pre-resolved scrape plan: every sample name (label rendering and name
  // sorting done once) with a pointer to its source instrument. Rebuilt
  // lazily after any registration change; map nodes keep instrument
  // pointers stable. Scrapes are on the simulation's hot path — without
  // the plan each one re-renders and re-sorts a few hundred names.
  struct PlanItem {
    enum class Kind {
      kCounter,
      kGauge,
      kSummaryQuantile,
      kSummaryCount,
      kSummarySum,
    };
    std::string name;
    Kind kind;
    const Counter* counter = nullptr;
    const GaugeFn* gauge = nullptr;
    const Summary* summary = nullptr;
    double q = 0.0;  // kSummaryQuantile only
  };

  void check_fresh(const std::string& name) const;
  void rebuild_plan();

  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, GaugeFn> gauges_;
  std::map<std::string, SummaryEntry> summaries_;
  std::vector<PlanItem> plan_;
  std::vector<std::string> names_;  // plan_ names, for sample_names()
  std::uint64_t plan_version_ = 0;
  bool plan_dirty_ = true;
};

/// Strips a trailing `{...}` label block: `a{b="c"}` -> `a`.
std::string base_name(const std::string& metric_name);

}  // namespace protean::telemetry
