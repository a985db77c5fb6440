// Online multi-window SLO burn-rate monitor (Google SRE style).
//
// The strict-SLO error budget allows `1 − target` of strict requests to
// miss their deadline. The burn rate over a window is
//
//     burn = violation_fraction / (1 − target)
//
// i.e. burn = 1 means the budget is being consumed exactly at the
// sustainable rate; burn = 10 exhausts a month's budget in ~3 days. An
// alert FIRES when both a fast window (default 60 s sim-time — catches
// the onset quickly) and a slow window (default 1800 s — suppresses
// blips) burn at or above `fire_threshold`. It CLEARS when the fast
// window drops below `clear_threshold` (hysteresis; the slow window is
// deliberately ignored on clear so recovery is visible quickly).
//
// Observations arrive per strict batch via observe_many(); window state
// advances on evaluate(now), called by the pipeline at each scrape.
// Everything is integer counting over ring buffers — deterministic, no
// RNG, no floating-point accumulation drift across runs.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace protean::telemetry {

struct BurnRateConfig {
  double slo_target = 0.99;      ///< strict-SLO attainment objective
  Duration fast_window = 60.0;   ///< seconds of sim-time
  Duration slow_window = 1800.0;
  double fire_threshold = 10.0;  ///< fast AND slow burn >= this -> fire
  double clear_threshold = 5.0;  ///< fast burn < this -> clear
};

/// One alert transition, recorded in the telemetry stream.
struct BurnAlertEvent {
  SimTime at = 0.0;
  bool fired = false;  ///< true = FIRING edge, false = CLEARED edge
  double fast_burn = 0.0;
  double slow_burn = 0.0;
};

class BurnRateMonitor {
 public:
  /// `tick` is the evaluation cadence (the pipeline's scrape interval);
  /// windows are rounded up to whole ticks.
  BurnRateMonitor(const BurnRateConfig& config, Duration tick);

  /// Feeds `total` strict-request outcomes at `when`, `violations` of
  /// them violated. Times must be non-decreasing between evaluate() calls
  /// (sim order guarantees this).
  void observe_many(SimTime when, std::uint64_t violations,
                    std::uint64_t total);

  /// Advances the windows to `now` and applies the fire/clear logic.
  /// Returns true when an alert edge (fire or clear) occurred.
  bool evaluate(SimTime now);

  bool firing() const noexcept { return firing_; }
  double fast_burn() const noexcept { return fast_burn_; }
  double slow_burn() const noexcept { return slow_burn_; }

  const std::vector<BurnAlertEvent>& events() const noexcept {
    return events_;
  }
  std::uint64_t alerts_fired() const noexcept { return alerts_fired_; }
  /// Time of the first FIRING edge; negative when no alert ever fired.
  SimTime first_alert_at() const noexcept { return first_alert_at_; }
  /// Total sim-time spent with the alert active. An alert still firing
  /// at `end` contributes up to `end`.
  Duration alert_active_seconds(SimTime end) const noexcept;

  const BurnRateConfig& config() const noexcept { return config_; }

 private:
  struct Window {
    // Ring of per-tick (violations, total) buckets.
    std::vector<std::uint64_t> violations;
    std::vector<std::uint64_t> total;
    std::uint64_t sum_violations = 0;
    std::uint64_t sum_total = 0;
    std::size_t head = 0;  // bucket index for the current tick

    void init(std::size_t ticks);
    void add(std::uint64_t n_violations, std::uint64_t n_total);
    void advance();  // rotate: evict the oldest tick, open a fresh one
    double burn(double budget) const noexcept;
  };

  BurnRateConfig config_;
  Duration tick_;
  double budget_;  // 1 - slo_target
  Window fast_;
  Window slow_;
  // Observations since the last evaluate(), flushed into both windows'
  // open tick there (all of them belong to that tick; cheaper than
  // touching both rings per request).
  std::uint64_t pending_violations_ = 0;
  std::uint64_t pending_total_ = 0;
  std::int64_t current_tick_ = 0;
  bool firing_ = false;
  double fast_burn_ = 0.0;
  double slow_burn_ = 0.0;
  std::vector<BurnAlertEvent> events_;
  std::uint64_t alerts_fired_ = 0;
  SimTime first_alert_at_ = -1.0;
};

}  // namespace protean::telemetry
