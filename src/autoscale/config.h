// Autoscaler configuration (src/autoscale).
//
// The control loop is a deterministic consumer of the telemetry scrape
// tick: every tick it reads the live MetricsRegistry / burn-rate monitor
// state and issues vertical (MIG geometry), horizontal (spot::Market
// acquire/release) and predictive (warm pool + weight prefetch) actions.
//
// Everything is default-off: `enabled == false` must leave every simulated
// run byte-identical to a build without this subsystem — no extra nodes
// are constructed, no pipeline is created, no RNG is consumed.
//
// This header is dependency-light on purpose: cluster::ClusterConfig embeds
// an AutoscaleConfig, and the cluster library must not depend on the
// autoscale control loop (only the loop depends on the cluster).
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/types.h"

namespace protean::autoscale {

/// The shipped control policies (see autoscale/policy.h for the registry).
enum class PolicyKind : std::uint8_t {
  kReactive,    ///< threshold rules on window attainment / utilization
  kPredictive,  ///< burn-rate alert windows + EWMA/seasonal rate forecast
};

struct AutoscaleConfig {
  bool enabled = false;
  PolicyKind policy = PolicyKind::kPredictive;

  /// Control-loop cadence. The loop rides the telemetry scrape tick: when
  /// `--telemetry` is also given its interval wins (one scrape schedule,
  /// one source of truth); otherwise an internal file-less pipeline is
  /// created with this interval.
  Duration tick = 10.0;

  /// Fleet bounds, in nodes. 0 resolves against the configured base fleet:
  /// min = ceil(node_count / 2), max = node_count + ceil(node_count / 2).
  std::uint32_t min_nodes = 0;
  std::uint32_t max_nodes = 0;

  /// At most this many node acquisitions / releases per tick.
  int max_step_up = 2;
  int max_step_down = 1;
  /// A release needs this many *consecutive* down-recommending ticks
  /// first (square-wave load must not flap the fleet).
  int settle_ticks = 3;

  /// Utilization the horizontal loop steers toward (percent of the active
  /// fleet busy). Classic HPA-style proportional sizing.
  double target_util_pct = 60.0;

  /// Predictive policy: provision for forecast × headroom.
  double headroom = 1.15;

  /// Vertical actions (MIG geometry promote/demote); at most one node
  /// changes geometry per tick, inside the cluster's global
  /// max_reconfig_fraction budget.
  bool vertical = true;

  /// Predictive warm-pool floor for the strict model, containers per node.
  int warm_target = 4;
  /// Prefetch forecast-hot model weights into the node caches (only when
  /// the memcache subsystem is enabled).
  bool prefetch = true;

  /// Prefer spot VMs when acquiring (the market still applies its
  /// procurement policy; on-demand-only markets ignore this).
  bool prefer_spot = true;

  std::uint32_t resolve_min(std::uint32_t base_nodes) const noexcept {
    const std::uint32_t fallback = (base_nodes + 1) / 2;
    const std::uint32_t lo = min_nodes != 0 ? min_nodes : fallback;
    return std::max<std::uint32_t>(1, std::min(lo, base_nodes));
  }
  std::uint32_t resolve_max(std::uint32_t base_nodes) const noexcept {
    const std::uint32_t fallback = base_nodes + (base_nodes + 1) / 2;
    const std::uint32_t hi = max_nodes != 0 ? max_nodes : fallback;
    return std::max(hi, base_nodes);
  }
};

}  // namespace protean::autoscale
