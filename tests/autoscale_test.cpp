// Autoscale subsystem tests: policy registry round-trips, the rate
// forecaster, hysteresis gating (no flap on square waves, per-tick step
// caps), policy decision rules, and the end-to-end contracts — disabled
// runs stay byte-identical across every scheme, enabled runs are
// deterministic, and the fleet respects its bounds.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autoscale/config.h"
#include "autoscale/controller.h"
#include "autoscale/forecast.h"
#include "autoscale/policy.h"
#include "harness/experiment.h"
#include "harness/json.h"
#include "sched/registry.h"

namespace protean::autoscale {
namespace {

// ---- registry --------------------------------------------------------------

TEST(PolicyRegistry, RoundTripsEveryPolicy) {
  EXPECT_EQ(all_policies().size(), 2u);
  for (PolicyKind kind : all_policies()) {
    EXPECT_EQ(parse_policy(policy_name(kind)), kind) << policy_name(kind);
    EXPECT_EQ(parse_policy(policy_cli_name(kind)), kind)
        << policy_cli_name(kind);
    EXPECT_NE(make_policy(kind), nullptr);
    EXPECT_STREQ(make_policy(kind)->name(), policy_name(kind));
  }
  EXPECT_EQ(parse_policy("PREDICTIVE"), PolicyKind::kPredictive);
  EXPECT_EQ(parse_policy("Reactive"), PolicyKind::kReactive);
  EXPECT_EQ(parse_policy("no-such-policy"), std::nullopt);
}

// ---- config ----------------------------------------------------------------

TEST(AutoscaleConfig, ResolvesFleetBounds) {
  AutoscaleConfig c;
  EXPECT_EQ(c.resolve_min(8), 4u);   // ceil(8/2)
  EXPECT_EQ(c.resolve_max(8), 12u);  // 8 + ceil(8/2)
  EXPECT_EQ(c.resolve_min(1), 1u);
  EXPECT_EQ(c.resolve_max(1), 2u);
  c.min_nodes = 6;
  c.max_nodes = 20;
  EXPECT_EQ(c.resolve_min(8), 6u);
  EXPECT_EQ(c.resolve_max(8), 20u);
  c.min_nodes = 50;  // clamped to the base fleet
  c.max_nodes = 2;   // never below the base fleet
  EXPECT_EQ(c.resolve_min(8), 8u);
  EXPECT_EQ(c.resolve_max(8), 8u);
}

// ---- forecaster ------------------------------------------------------------

TEST(RateForecaster, UntrainedReturnsZeroThenTracksLevel) {
  RateForecaster f(0.3, /*season_period=*/0.0, /*tick=*/10.0);
  EXPECT_EQ(f.forecast(0.0), 0.0);
  f.observe(10.0, 100.0);  // first observation seeds the level directly
  EXPECT_DOUBLE_EQ(f.level(), 100.0);
  EXPECT_DOUBLE_EQ(f.forecast(10.0), 100.0);
  for (int i = 2; i <= 20; ++i) f.observe(10.0 * i, 200.0);
  EXPECT_NEAR(f.forecast(200.0), 200.0, 2.0);  // EWMA converges
}

TEST(RateForecaster, LearnsSeasonalShapeAfterOneCycle) {
  // 60 s "day", 10 s ticks: six phase buckets. Feed a square-wave day
  // (peak in the first half, trough in the second) for two cycles.
  RateForecaster f(0.3, 60.0, 10.0);
  for (int cycle = 0; cycle < 2; ++cycle) {
    for (int step = 0; step < 6; ++step) {
      const double t = cycle * 60.0 + step * 10.0;
      f.observe(t, step < 3 ? 150.0 : 50.0);
    }
  }
  // At the end of a trough phase the next tick enters the peak again:
  // the forecast must anticipate the ramp rather than trail it.
  const double before_peak = f.forecast(110.0);  // next tick is t=120 (peak)
  const double before_trough = f.forecast(140.0);  // next tick t=150 (trough)
  EXPECT_GT(before_peak, before_trough);
  EXPECT_GT(before_peak, f.level());
  EXPECT_LT(before_trough, f.level());
}

// ---- hysteresis ------------------------------------------------------------

TEST(HysteresisGate, SquareWaveDoesNotFlapTheFleet) {
  // Troughs shorter than the settle window: the desired size alternates
  // 10, 4, 10, 4, ... but the committed fleet must never move down.
  HysteresisGate gate(/*settle_ticks=*/3, /*max_step_up=*/2,
                      /*max_step_down=*/1);
  std::uint32_t committed = 10;
  for (int i = 0; i < 20; ++i) {
    committed = gate.apply(committed, i % 2 == 0 ? 4u : 10u);
    EXPECT_EQ(committed, 10u) << "tick " << i;
  }
}

TEST(HysteresisGate, ScaleUpIsCappedPerTick) {
  HysteresisGate gate(3, /*max_step_up=*/2, 1);
  EXPECT_EQ(gate.apply(4, 10), 6u);  // +2, not +6
  EXPECT_EQ(gate.apply(6, 10), 8u);
  EXPECT_EQ(gate.apply(8, 9), 9u);  // never overshoots the ask
}

TEST(HysteresisGate, ScaleDownNeedsConsecutiveTicksAndIsCapped) {
  HysteresisGate gate(/*settle_ticks=*/3, 2, /*max_step_down=*/1);
  EXPECT_EQ(gate.apply(10, 4), 10u);  // streak 1
  EXPECT_EQ(gate.apply(10, 4), 10u);  // streak 2
  EXPECT_EQ(gate.apply(10, 4), 9u);   // streak 3: move, capped at -1
  EXPECT_EQ(gate.apply(9, 4), 9u);    // streak resets after a move
  // Any non-down tick resets the streak.
  gate.apply(9, 4);
  gate.apply(9, 9);
  EXPECT_EQ(gate.apply(9, 4), 9u);
  EXPECT_EQ(gate.apply(9, 4), 9u);
  EXPECT_EQ(gate.apply(9, 4), 8u);
}

// ---- policies --------------------------------------------------------------

Signals healthy_signals() {
  Signals s;
  s.window_attainment_pct = 99.9;
  s.window_strict_total = 500;
  s.arrival_rps = 1000.0;
  s.forecast_rps = 1000.0;
  s.window_util_pct = 60.0;
  s.committed_nodes = 8;
  s.min_nodes = 4;
  s.max_nodes = 12;
  return s;
}

TEST(ReactivePolicy, ScalesUpWhenAttainmentDropsOrBacklogGrows) {
  auto policy = make_policy(PolicyKind::kReactive);
  AutoscaleConfig c;
  Signals s = healthy_signals();
  s.window_attainment_pct = 90.0;  // below the 97% scale-up threshold
  Decision d = policy->decide(s, c);
  EXPECT_GT(d.target_nodes, s.committed_nodes);
  EXPECT_EQ(d.vertical, VerticalStance::kPromote);

  s = healthy_signals();
  s.backlog = 25;
  d = policy->decide(s, c);
  EXPECT_GT(d.target_nodes, s.committed_nodes);
}

TEST(ReactivePolicy, ScalesDownOnlyWhenHealthyAndIdle) {
  auto policy = make_policy(PolicyKind::kReactive);
  AutoscaleConfig c;
  Signals s = healthy_signals();
  s.window_util_pct = 20.0;  // < 0.5 × target_util_pct
  Decision d = policy->decide(s, c);
  EXPECT_EQ(d.target_nodes, s.committed_nodes - 1);

  s.window_attainment_pct = 99.0;  // below the 99.5% scale-down floor: hold
  d = policy->decide(s, c);
  EXPECT_GE(d.target_nodes, s.committed_nodes);
}

TEST(ReactivePolicy, HotShardSkewIsPressureOnlyWhenSharded) {
  auto policy = make_policy(PolicyKind::kReactive);
  AutoscaleConfig c;
  // Unsharded: a (nonsensical) skew value must be ignored entirely.
  Signals s = healthy_signals();
  s.window_util_pct = 20.0;  // idle enough to scale down when healthy
  s.shards = 1;
  s.hot_shard_skew = 3.0;
  Decision d = policy->decide(s, c);
  EXPECT_EQ(d.target_nodes, s.committed_nodes - 1);

  // Sharded with a hot shard: pressure — scale up, never shrink into it.
  s.shards = 4;
  d = policy->decide(s, c);
  EXPECT_GT(d.target_nodes, s.committed_nodes);
  EXPECT_EQ(d.vertical, VerticalStance::kPromote);

  // Sharded but balanced: behaves exactly like the unsharded plane.
  s.hot_shard_skew = 1.0;
  d = policy->decide(s, c);
  EXPECT_EQ(d.target_nodes, s.committed_nodes - 1);
}

TEST(PredictivePolicy, SizesForTheHotShard) {
  auto policy = make_policy(PolicyKind::kPredictive);
  AutoscaleConfig c;
  Signals s = healthy_signals();
  s.window_util_pct = c.target_util_pct;  // proportional term holds flat
  const std::uint32_t flat = policy->decide(s, c).target_nodes;

  s.shards = 4;
  s.hot_shard_skew = 1.4;
  EXPECT_GT(policy->decide(s, c).target_nodes, flat);

  // The multiplier is capped at 1.5x so a transient imbalance cannot
  // swing the fleet.
  s.hot_shard_skew = 10.0;
  EXPECT_LE(policy->decide(s, c).target_nodes,
            std::min<std::uint32_t>(
                s.max_nodes,
                static_cast<std::uint32_t>(
                    std::ceil(1.5 * static_cast<double>(flat)))));

  // Unsharded: skew is inert.
  s.shards = 1;
  EXPECT_EQ(policy->decide(s, c).target_nodes, flat);
}

TEST(PredictivePolicy, BurnAlertForcesScaleUpAndFastBurnBlocksScaleDown) {
  auto policy = make_policy(PolicyKind::kPredictive);
  AutoscaleConfig c;
  Signals s = healthy_signals();
  s.alert_firing = true;
  Decision d = policy->decide(s, c);
  EXPECT_GE(d.target_nodes,
            s.committed_nodes + static_cast<std::uint32_t>(c.max_step_up));
  EXPECT_EQ(d.vertical, VerticalStance::kPromote);

  s = healthy_signals();
  s.window_util_pct = 20.0;  // idle enough to shrink...
  s.fast_burn = 1.5;         // ...but the error budget is burning
  d = policy->decide(s, c);
  EXPECT_GE(d.target_nodes, s.committed_nodes);
}

TEST(PredictivePolicy, RisingForecastProvisionsHeadroom) {
  auto policy = make_policy(PolicyKind::kPredictive);
  AutoscaleConfig c;
  Signals s = healthy_signals();
  s.window_util_pct = 70.0;
  s.forecast_rps = 1500.0;  // 1.5× the current arrivals
  const Decision rising = policy->decide(s, c);
  s.forecast_rps = 1000.0;
  const Decision flat = policy->decide(s, c);
  EXPECT_GT(rising.target_nodes, flat.target_nodes);
  EXPECT_GE(rising.warm_per_node, flat.warm_per_node);
}

// ---- end-to-end ------------------------------------------------------------

harness::ExperimentConfig base_config(double horizon = 30.0) {
  auto config = harness::primary_config("ResNet 50", horizon);
  config.warmup = 5.0;
  return config;
}

std::string run_json(const harness::ExperimentConfig& config) {
  return harness::report_to_json(harness::run_experiment(config)).dump();
}

TEST(AutoscaleIntegration, DisabledRunsAreByteIdenticalAcrossAllSchemes) {
  // With the subsystem off, repeat runs of every scheme serialize
  // byte-identically and never grow an "autoscale" section — the
  // default-off contract shared with faults/memcache/telemetry.
  for (sched::Scheme scheme : sched::all_schemes()) {
    auto config = base_config(20.0).with_scheme(scheme);
    ASSERT_FALSE(config.cluster.autoscale.enabled);
    const std::string first = run_json(config);
    EXPECT_EQ(first, run_json(config)) << sched::scheme_name(scheme);
    EXPECT_EQ(first.find("\"autoscale\""), std::string::npos);
  }
}

TEST(AutoscaleIntegration, EnabledRunsAreDeterministic) {
  for (PolicyKind kind : all_policies()) {
    auto config = base_config();
    config.cluster.autoscale.enabled = true;
    config.cluster.autoscale.policy = kind;
    config.cluster.autoscale.settle_ticks = 2;
    const std::string first = run_json(config);
    EXPECT_EQ(first, run_json(config)) << policy_name(kind);
    EXPECT_NE(first.find("\"autoscale\""), std::string::npos);
  }
}

TEST(AutoscaleIntegration, FleetStaysWithinResolvedBounds) {
  auto config = base_config(60.0);
  config.cluster.autoscale.enabled = true;
  config.cluster.autoscale.policy = PolicyKind::kPredictive;
  const harness::Report report = harness::run_experiment(config);
  ASSERT_TRUE(report.autoscale.enabled);
  EXPECT_GT(report.autoscale.ticks, 0u);
  const auto& ac = config.cluster.autoscale;
  const std::uint32_t base = config.cluster.node_count;
  EXPECT_LE(report.autoscale.peak_nodes, ac.resolve_max(base));
  EXPECT_GE(report.autoscale.low_nodes, ac.resolve_min(base));
  EXPECT_GE(report.autoscale.avg_nodes,
            static_cast<double>(ac.resolve_min(base)));
  EXPECT_LE(report.autoscale.avg_nodes,
            static_cast<double>(ac.resolve_max(base)));
}

TEST(AutoscaleIntegration, TelemetryReportStaysGatedOnTelemetryFlag) {
  // An autoscale-only run drives a file-less pipeline internally but must
  // not claim telemetry output in the report.
  auto config = base_config();
  config.cluster.autoscale.enabled = true;
  const harness::Report report = harness::run_experiment(config);
  EXPECT_TRUE(report.autoscale.enabled);
  EXPECT_FALSE(report.telemetry.enabled);
}

}  // namespace
}  // namespace protean::autoscale
