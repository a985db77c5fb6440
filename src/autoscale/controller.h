// SLO-aware online autoscaling control loop (the tentpole of src/autoscale).
//
// The controller rides the telemetry scrape tick: TelemetryPipeline invokes
// it at the end of every scrape (after the burn-rate monitor refresh,
// before the attainment window resets), so the loop consumes exactly the
// windowed state the pipeline just published — one scrape schedule, one
// source of truth. Each tick it
//
//  1. assembles Signals (window attainment, burn rates, arrival rate from
//     the gateway counter, a forecast from the EWMA/seasonal model, fleet
//     utilization, dispatch backlog, committed fleet size),
//  2. asks the configured Policy for a Decision,
//  3. actuates: horizontal spot::Market acquire/release with hysteresis
//     (HysteresisGate: per-tick step caps, settle_ticks before any
//     release), vertical MIG geometry promote/demote along a fixed
//     ladder, predictive warm-pool boosts and memcache weight prefetch.
//
// Everything is deterministic: the loop consumes no randomness, releases
// drain gracefully (a node is released only once idle), and scale-ups go
// through the market's normal procurement path (boot time, spot
// availability) so acquired capacity is not free.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "autoscale/config.h"
#include "autoscale/forecast.h"
#include "autoscale/policy.h"
#include "common/types.h"
#include "gpu/mig.h"

namespace protean::cluster {
class Cluster;
}
namespace protean::sim {
class Simulator;
}
namespace protean::telemetry {
class TelemetryPipeline;
}
namespace protean::workload {
struct ModelProfile;
}

namespace protean::autoscale {

/// Rate limiter between a policy's desired fleet size and the actuated
/// one: scale-ups are capped at max_step_up per tick, scale-downs at
/// max_step_down and additionally require `settle_ticks` *consecutive*
/// down-recommending ticks first — a square-wave load whose troughs are
/// shorter than the settle window never flaps the fleet.
class HysteresisGate {
 public:
  HysteresisGate(int settle_ticks, int max_step_up, int max_step_down)
      : settle_ticks_(settle_ticks > 0 ? settle_ticks : 1),
        up_(max_step_up > 0 ? max_step_up : 1),
        down_(max_step_down > 0 ? max_step_down : 1) {}

  std::uint32_t apply(std::uint32_t committed, std::uint32_t desired) {
    if (desired > committed) {
      down_streak_ = 0;
      return std::min(desired, committed + static_cast<std::uint32_t>(up_));
    }
    if (desired < committed) {
      if (++down_streak_ < settle_ticks_) return committed;
      down_streak_ = 0;
      const auto step = static_cast<std::uint32_t>(down_);
      return std::max(desired, committed > step ? committed - step : 0U);
    }
    down_streak_ = 0;
    return committed;
  }

 private:
  int settle_ticks_;
  int up_;
  int down_;
  int down_streak_ = 0;
};

/// Per-run controller accounting for the report / bench tables.
struct AutoscaleStats {
  std::uint64_t ticks = 0;
  int acquisitions = 0;      ///< market acquires + cancelled decommissions
  int releases = 0;          ///< nodes actually released back to the market
  int promotes = 0;          ///< vertical reconfigurations toward larger slices
  int demotes = 0;           ///< vertical reconfigurations toward smaller slices
  std::uint64_t warm_boosts = 0;        ///< containers proactively booted
  std::uint64_t prefetched_slices = 0;  ///< slice weight prefetches issued
  std::uint32_t peak_nodes = 0;         ///< max committed fleet seen
  std::uint32_t low_nodes = 0;          ///< min committed fleet seen
  double committed_ticks = 0.0;  ///< Σ committed per tick (avg = /ticks)
};

class AutoscaleController {
 public:
  /// Registers itself as the pipeline's scrape listener. `strict_model`
  /// drives warm-pool boosts and weight prefetch; the cluster and pipeline
  /// must outlive the controller.
  AutoscaleController(sim::Simulator& simulator, cluster::Cluster& cluster,
                      telemetry::TelemetryPipeline& pipeline,
                      const AutoscaleConfig& config,
                      const workload::ModelProfile* strict_model);

  /// One control tick (invoked by the pipeline's scrape; public for unit
  /// tests driving synthetic windows).
  void on_scrape(SimTime now, double window_attainment_pct,
                 std::uint64_t window_strict_total);

  const AutoscaleStats& stats() const noexcept { return stats_; }
  const char* policy_name() const noexcept { return policy_->name(); }
  /// Nodes up or being acquired, minus nodes draining toward release.
  std::uint32_t committed_nodes() const;
  std::uint32_t min_nodes() const noexcept { return min_nodes_; }
  std::uint32_t max_nodes() const noexcept { return max_nodes_; }

 private:
  Signals gather(SimTime now, double attainment_pct,
                 std::uint64_t strict_total);
  void drain_decommissions();
  void scale_to(std::uint32_t target);
  void apply_vertical(VerticalStance stance);
  void apply_warm(int warm_per_node);
  void apply_prefetch();

  sim::Simulator& sim_;
  cluster::Cluster& cluster_;
  telemetry::TelemetryPipeline& pipeline_;
  AutoscaleConfig config_;
  const workload::ModelProfile* strict_model_;
  std::unique_ptr<Policy> policy_;
  RateForecaster forecaster_;
  HysteresisGate gate_;
  std::uint32_t min_nodes_;
  std::uint32_t max_nodes_;
  /// MIG geometry rungs, smallest-slice layout first; vertical actions move
  /// one rung per reconfiguration.
  std::vector<gpu::Geometry> ladder_;
  std::set<NodeId> decommissioning_;
  std::uint64_t last_requests_seen_ = 0;
  double last_busy_seconds_ = 0.0;
  SimTime last_tick_at_ = 0.0;
  AutoscaleStats stats_;
};

}  // namespace protean::autoscale
