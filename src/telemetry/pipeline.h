// Telemetry pipeline: periodic scrapes of a MetricsRegistry plus the
// online SLO burn-rate monitor, emitted as a JSONL timeline and an
// OpenMetrics-style text exposition.
//
// Like obs::Tracer, the pipeline is strictly observational and
// default-off: scrape events ride the simulator's ordinary event queue
// (FIFO among same-timestamp events, so adding them shifts sequence
// numbers uniformly and never reorders existing events), gauge callbacks
// are pure reads, nothing consumes randomness — runs without telemetry
// are byte-identical to builds without the subsystem, and runs with it
// are deterministic across repeats.
//
// Output (docs/telemetry.md has the full reference):
//  * `FILE`     — JSONL timeline: one `{"t":..,"metrics":{..}}` object
//                 per scrape (metric names sorted) plus
//                 `{"t":..,"event":"slo_burn_alert",..}` lines at alert
//                 edges, in simulation order.
//  * `FILE.om`  — final-scrape OpenMetrics snapshot (`# TYPE` lines,
//                 `name value` samples, `# EOF`).
// parse_timeline reads the JSONL timeline back for the offline tools
// (metrics_diff, slo_explain).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "sim/simulator.h"
#include "telemetry/burnrate.h"
#include "telemetry/registry.h"

namespace protean::obs {
class Tracer;
}

namespace protean::telemetry {

/// Where (and how often) to scrape. Parsed from the CLI's
/// `FILE[:interval_s]` spec.
struct TelemetryOptions {
  std::string path;          ///< empty disables telemetry
  Duration interval = 10.0;  ///< sim-seconds between scrapes

  bool enabled() const noexcept { return !path.empty(); }
};

/// One metric's value at one scrape of a JSONL timeline.
struct TimelineSample {
  double t = 0.0;
  double value = 0.0;
};

/// One `slo_burn_alert` line of a JSONL timeline.
struct TimelineAlert {
  double t = 0.0;
  std::string state;
  double fast_burn = 0.0;
  double slow_burn = 0.0;
  std::string dominant_cause;  ///< present on attribution-enabled runs
};

/// A JSONL timeline read back (what TelemetryPipeline::write_files writes).
struct Timeline {
  /// Metric name -> one sample per scrape it appeared in, in file order.
  std::map<std::string, std::vector<TimelineSample>> series;
  std::vector<TimelineAlert> alerts;
  std::size_t scrapes = 0;
};

/// Why parse_timeline stopped: the 1-based line number, and the JSON
/// parser's message or "not a scrape or a burn alert".
struct TimelineError {
  std::size_t line = 0;
  std::string why;
};

/// The one reader of the JSONL timeline. Every non-empty line must be a
/// scrape, {"t":T,"metrics":{NAME:NUMBER,...}}, or an alert,
/// {"t":T,"event":"slo_burn_alert",...} whose fields are numbers except
/// the string-valued state and dominant_cause. On any other line returns
/// nullopt and fills `error`.
std::optional<Timeline> parse_timeline(std::string_view text,
                                       TimelineError* error = nullptr);

/// Per-run burn-monitor summary for the final report.
struct BurnSummary {
  std::uint64_t alerts_fired = 0;
  SimTime first_alert_at = -1.0;     ///< negative: never fired
  Duration alert_active_seconds = 0.0;
};

class TelemetryPipeline {
 public:
  /// Scrapes fire every `options.interval` sim-seconds starting at
  /// t = interval. `tracer` may be null; when set, alert edges also
  /// appear as tracer instants ("slo_burn_alert").
  ///
  /// An empty `options.path` runs the pipeline *file-less*: scrapes,
  /// the attainment window, and the burn monitor all work (the autoscale
  /// control loop rides them), but no JSONL timeline is buffered and
  /// write_files() is a no-op.
  TelemetryPipeline(sim::Simulator& simulator,
                    const TelemetryOptions& options,
                    const BurnRateConfig& burn_config,
                    obs::Tracer* tracer = nullptr);
  ~TelemetryPipeline();
  TelemetryPipeline(const TelemetryPipeline&) = delete;
  TelemetryPipeline& operator=(const TelemetryPipeline&) = delete;

  /// Components register their instruments here (via
  /// cluster::ClusterConfig::telemetry).
  MetricsRegistry& registry() noexcept { return registry_; }

  /// Collector batch-observer feed: expands the batch's per-request
  /// latency ramp exactly like Collector::record does, updating the
  /// rolling latency summaries, the windowed attainment counters, and
  /// (strict only) the burn-rate monitor. Wire with
  /// Collector::set_batch_observer.
  void observe_batch(SimTime when, bool strict, double lat_first,
                     double lat_last, int count, double slo);

  /// Observer invoked at the end of every periodic scrape — after the
  /// burn-rate monitor refresh, before the attainment window resets —
  /// with (scrape time, window attainment %, window strict count). The
  /// autoscale controller hooks its control loop here. Not invoked for
  /// the final finish() scrape (no actions after the run).
  void set_scrape_listener(
      std::function<void(SimTime, double, std::uint64_t)> fn) {
    scrape_listener_ = std::move(fn);
  }

  /// When set, burn-rate alert edges are enriched with the attribution
  /// engine's *current* dominant violation cause: the JSONL alert line
  /// gains a `"dominant_cause"` field and the tracer instant an equal arg.
  /// Unset (the default), alert output is byte-identical to pre-attr
  /// builds.
  void set_dominant_cause_provider(std::function<std::string()> fn) {
    dominant_cause_ = std::move(fn);
  }

  /// Performs the final scrape at `end` and stops the periodic task.
  /// Call once, after the simulation drains and before write_files().
  void finish(SimTime end);

  /// Writes the JSONL timeline to options.path and the OpenMetrics
  /// snapshot to options.path + ".om". False on any I/O error.
  bool write_files() const;

  const BurnRateMonitor& monitor() const noexcept { return monitor_; }
  BurnSummary burn_summary() const;
  std::size_t scrape_count() const noexcept { return scrapes_; }
  const std::vector<std::string>& jsonl_lines() const noexcept {
    return lines_;
  }

 private:
  void scrape(SimTime now);
  /// Renders the final scrape's samples as OpenMetrics text.
  std::string render_exposition() const;

  sim::Simulator& sim_;
  TelemetryOptions options_;
  MetricsRegistry registry_;
  BurnRateMonitor monitor_;
  obs::Tracer* tracer_;
  Summary* strict_latency_;  // owned by registry_
  Summary* be_latency_;      // owned by registry_
  std::uint64_t window_strict_total_ = 0;
  std::uint64_t window_strict_ok_ = 0;
  std::function<void(SimTime, double, std::uint64_t)> scrape_listener_;
  std::function<std::string()> dominant_cause_;
  std::vector<std::string> lines_;
  // Scrape-plan caches: pre-escaped `"name":` JSONL fragments keyed on
  // the registry's plan version, a reused value buffer, and the final
  // scrape's names/values (the .om snapshot source).
  std::uint64_t plan_version_ = 0;
  std::vector<std::string> json_keys_;
  std::vector<double> values_;
  std::vector<std::string> last_names_;
  std::vector<double> last_values_;
  std::size_t scrapes_ = 0;
  bool finished_ = false;
  std::unique_ptr<sim::PeriodicTask> task_;
};

}  // namespace protean::telemetry
