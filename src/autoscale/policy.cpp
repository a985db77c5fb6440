#include "autoscale/policy.h"

#include <algorithm>
#include <cctype>
#include <cmath>

namespace protean::autoscale {

namespace {

/// Scale-down is only considered while the scrape window's strict SLO
/// attainment stays at or above this (percent).
constexpr double kDownAttainmentPct = 99.5;
/// Reactive policy: scale up when window attainment falls below this.
constexpr double kUpAttainmentPct = 97.0;

std::string lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::uint32_t clamp_fleet(double nodes, const Signals& s) {
  if (nodes < static_cast<double>(s.min_nodes)) return s.min_nodes;
  if (nodes > static_cast<double>(s.max_nodes)) return s.max_nodes;
  return static_cast<std::uint32_t>(nodes);
}

/// Reactive threshold policy: classic rule-based autoscaling. Scale up a
/// step when the scrape window's attainment dips below the up threshold or
/// batches park in the cluster backlog; scale down one node when the
/// window is healthy and the active fleet runs well under the utilization
/// target. No forecasting, no burn-rate windows.
class ReactivePolicy final : public Policy {
 public:
  const char* name() const noexcept override { return "Reactive threshold"; }

  Decision decide(const Signals& s, const AutoscaleConfig& c) override {
    Decision d;
    d.target_nodes = s.committed_nodes;
    // On a sharded control plane a heavily skewed shard saturates its node
    // range while the fleet-average signals still look healthy; treat it as
    // pressure and never shrink into it. Inert when shards == 1 (skew is
    // pinned to 1.0), so unsharded decisions are unchanged.
    const bool hot_shard = s.shards > 1 && s.hot_shard_skew > 1.5;
    const bool hurting = s.window_attainment_pct < kUpAttainmentPct ||
                         s.backlog > 0 || hot_shard;
    const bool healthy =
        s.window_attainment_pct >= kDownAttainmentPct && !hot_shard;
    if (hurting) {
      d.target_nodes = clamp_fleet(
          static_cast<double>(s.committed_nodes) + c.max_step_up, s);
      d.vertical = VerticalStance::kPromote;
    } else if (healthy && s.window_util_pct < 0.5 * c.target_util_pct &&
               s.committed_nodes > s.min_nodes) {
      d.target_nodes = s.committed_nodes - 1;
      if (s.window_util_pct < 0.3 * c.target_util_pct) {
        d.vertical = VerticalStance::kDemote;
      }
    }
    return d;
  }
};

/// Burn-rate-predictive policy: sizes the fleet proportionally to measured
/// utilization (HPA-style), scaled by the forecast growth ratio with
/// headroom, and lets the multi-window burn-rate alert (fire/clear
/// hysteresis in telemetry::BurnRateMonitor) both force emergency
/// scale-ups and veto scale-downs. Warm-pool and weight-prefetch targets
/// come from the same forecast.
class PredictivePolicy final : public Policy {
 public:
  const char* name() const noexcept override {
    return "Burn-rate predictive";
  }

  Decision decide(const Signals& s, const AutoscaleConfig& c) override {
    Decision d;
    const double committed = static_cast<double>(s.committed_nodes);
    // Demand-proportional base: n × (util / target util).
    double desired = committed;
    if (s.window_util_pct > 0.0 && c.target_util_pct > 0.0) {
      desired = committed * s.window_util_pct / c.target_util_pct;
    }
    // Forecast growth ratio, clamped so one noisy window cannot swing the
    // fleet; headroom applies to growth only.
    double ratio = 1.0;
    if (s.forecast_rps > 0.0 && s.arrival_rps > 1e-9) {
      ratio = std::clamp(s.forecast_rps / s.arrival_rps, 0.6, 1.8);
    }
    desired *= ratio > 1.0 ? ratio * c.headroom : ratio;
    // Sharded control plane: the hottest shard saturates before the fleet
    // average does, so size for it — capped so a transient imbalance cannot
    // swing the fleet. Inert when shards == 1 (skew is pinned to 1.0).
    if (s.shards > 1 && s.hot_shard_skew > 1.1) {
      desired *= std::min(s.hot_shard_skew, 1.5);
    }
    // 10% deadband around the current fleet: proportional control should
    // not chase rounding noise.
    if (std::fabs(desired - committed) <= 0.1 * committed) {
      desired = committed;
    }
    d.target_nodes = clamp_fleet(std::ceil(desired - 1e-9), s);

    // Burn-rate overrides. While the alert fires, force an emergency step
    // up and never shrink; while the fast window still burns above budget
    // (>1 means the error budget is being spent faster than allotted),
    // hold the fleet.
    if (s.alert_firing) {
      d.target_nodes = std::max(
          d.target_nodes,
          clamp_fleet(committed + static_cast<double>(c.max_step_up), s));
      d.vertical = VerticalStance::kPromote;
    } else if (s.fast_burn > 1.0 ||
               s.window_attainment_pct < kDownAttainmentPct ||
               s.backlog > 0) {
      d.target_nodes = std::max(d.target_nodes, s.committed_nodes);
      if (s.backlog > 0) {
        d.target_nodes = std::max(
            d.target_nodes, clamp_fleet(committed + 1.0, s));
      }
    } else if (s.window_util_pct < 0.4 * c.target_util_pct &&
               d.target_nodes >= s.committed_nodes &&
               s.committed_nodes > s.min_nodes) {
      // Deep idle but the proportional term says hold (e.g. untrained
      // forecast): trim one node; the settle gate rate-limits this anyway.
      d.target_nodes = s.committed_nodes - 1;
      d.vertical = VerticalStance::kDemote;
    }

    // Predictive warm pool: keep the strict floor, boosted ahead of
    // forecast growth so scale-out capacity is warm when the wave lands.
    int warm = c.warm_target;
    if (ratio > 1.05) {
      warm = static_cast<int>(std::ceil(c.warm_target * ratio));
    }
    d.warm_per_node = std::min(warm, 8);
    d.prefetch_strict = c.prefetch;
    return d;
  }
};

}  // namespace

const char* policy_name(PolicyKind kind) noexcept {
  switch (kind) {
    case PolicyKind::kReactive: return "Reactive threshold";
    case PolicyKind::kPredictive: return "Burn-rate predictive";
  }
  return "?";
}

const char* policy_cli_name(PolicyKind kind) noexcept {
  switch (kind) {
    case PolicyKind::kReactive: return "reactive";
    case PolicyKind::kPredictive: return "predictive";
  }
  return "?";
}

std::optional<PolicyKind> parse_policy(std::string_view text) {
  const std::string t = lower(text);
  for (PolicyKind kind : all_policies()) {
    if (t == policy_cli_name(kind) || t == lower(policy_name(kind))) {
      return kind;
    }
  }
  return std::nullopt;
}

std::unique_ptr<Policy> make_policy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kReactive: return std::make_unique<ReactivePolicy>();
    case PolicyKind::kPredictive: return std::make_unique<PredictivePolicy>();
  }
  return nullptr;
}

const std::vector<PolicyKind>& all_policies() {
  static const std::vector<PolicyKind> kAll = {
      PolicyKind::kReactive,
      PolicyKind::kPredictive,
  };
  return kAll;
}

}  // namespace protean::autoscale
