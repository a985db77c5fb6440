// End-to-end regression locks for the paper's headline claims.
//
// These tests run the same experiments the benches print and assert the
// *orderings and regimes* EXPERIMENTS.md documents, so calibration drift
// that silently breaks a reproduced result fails CI instead.
#include <gtest/gtest.h>

#include "harness/experiment.h"

namespace protean::harness {
namespace {

ExperimentConfig quick(const char* model, Duration horizon = 45.0) {
  auto config = primary_config(model, horizon);
  config.warmup = 15.0;
  return config;
}

Report run(ExperimentConfig config, sched::Scheme scheme) {
  config.scheme = scheme;
  return run_experiment(config);
}

TEST(PaperClaims, ProteanDominatesVisionSloCompliance) {
  // Fig. 5: PROTEAN >= 96% on every vision model class representative and
  // strictly above every baseline.
  for (const char* model : {"ResNet 50", "ShuffleNet V2"}) {
    const auto config = quick(model);
    const auto reports = run_schemes(config, sched::paper_schemes());
    const auto& protean = reports.back();
    EXPECT_GT(protean.slo_compliance_pct, 96.0) << model;
    for (std::size_t i = 0; i + 1 < reports.size(); ++i) {
      EXPECT_GT(protean.slo_compliance_pct,
                reports[i].slo_compliance_pct + 5.0)
          << model << " vs " << reports[i].scheme;
    }
  }
}

TEST(PaperClaims, InflessCollapsesOnHeavyLlms) {
  // Fig. 12: consolidation + VHI bandwidth pressure destroys INFless.
  const auto config = quick("ALBERT");
  const auto infless = run(config, sched::Scheme::kInflessLlama);
  const auto protean = run(config, sched::Scheme::kProtean);
  EXPECT_LT(infless.slo_compliance_pct, 10.0);
  EXPECT_GT(protean.slo_compliance_pct, 80.0);
  // The paper's "up to ~93% more" gap.
  EXPECT_GT(protean.slo_compliance_pct - infless.slo_compliance_pct, 75.0);
}

TEST(PaperClaims, Table4AllStrictOrdering) {
  auto config = quick("ResNet 50");
  config.strict_fraction = 1.0;
  const auto reports = run_schemes(config, sched::paper_schemes());
  const auto& molecule = reports[0];
  const auto& naive = reports[1];
  const auto& infless = reports[2];
  const auto& protean = reports[3];
  EXPECT_LT(infless.slo_compliance_pct, 5.0);    // paper: 0.42%
  EXPECT_GT(naive.slo_compliance_pct, 35.0);     // paper: 54.31%
  EXPECT_GT(protean.slo_compliance_pct, 90.0);   // paper: 94.19%
  EXPECT_GT(molecule.slo_compliance_pct, infless.slo_compliance_pct);
}

TEST(PaperClaims, ProteanTailLatencyFarBelowBaselines) {
  // "Tail latency up to 82% less": PROTEAN's P99 is a small fraction of
  // the worst baseline's.
  const auto config = quick("SENet 18");
  const auto reports = run_schemes(config, sched::paper_schemes());
  double worst = 0.0;
  for (std::size_t i = 0; i + 1 < reports.size(); ++i) {
    worst = std::max(worst, reports[i].strict_p99_ms);
  }
  EXPECT_LT(reports.back().strict_p99_ms, 0.4 * worst);
}

TEST(PaperClaims, HybridSpotSavesUpTo70Percent) {
  // Fig. 9 / Table 3: at high availability the hybrid fleet is all-spot.
  auto config = quick("ResNet 50");
  config.scheme = sched::Scheme::kProtean;
  config.cluster.market.policy = spot::ProcurementPolicy::kHybrid;
  config.cluster.market.p_rev = 0.0;
  const auto report = run_experiment(config);
  EXPECT_NEAR(report.cost_usd / report.cost_on_demand_ref_usd, 0.30, 0.01);
  EXPECT_GT(report.slo_compliance_pct, 96.0);
}

TEST(PaperClaims, SpotOnlyCollapsesAtLowAvailability) {
  auto config = quick("ResNet 50");
  config.cluster.market.p_rev = 0.708;
  config.cluster.market.revocation_check_interval = 15.0;
  config.cluster.market.eviction_notice = 8.0;
  config.cluster.market.vm_boot_time = 6.0;

  config.cluster.market.policy = spot::ProcurementPolicy::kSpotOnly;
  const auto spot_only = run(config, sched::Scheme::kProtean);
  config.cluster.market.policy = spot::ProcurementPolicy::kHybrid;
  const auto hybrid = run(config, sched::Scheme::kProtean);

  // Paper Fig. 9b: spot-only 0.68% vs PROTEAN hybrid 99.35%.
  EXPECT_LT(spot_only.slo_compliance_pct, 40.0);
  EXPECT_GT(hybrid.slo_compliance_pct, 90.0);
  EXPECT_LT(spot_only.cost_usd, hybrid.cost_usd);
}

TEST(PaperClaims, OracleGapIsSmall) {
  // Fig. 17: Oracle ahead by <= ~1 point of compliance.
  const auto config = quick("VGG 19");
  const auto protean = run(config, sched::Scheme::kProtean);
  const auto oracle = run(config, sched::Scheme::kOracle);
  EXPECT_LT(oracle.slo_compliance_pct - protean.slo_compliance_pct, 2.0);
  EXPECT_GT(protean.slo_compliance_pct, 96.0);
}

TEST(PaperClaims, TightSloHurtsBaselinesMoreThanProtean) {
  // Fig. 15: at 2x targets baselines lose double digits, PROTEAN ~5.
  auto config = quick("ResNet 50");
  const auto loose_p = run(config, sched::Scheme::kProtean);
  const auto loose_m = run(config, sched::Scheme::kMoleculeBeta);
  config.cluster.slo_multiplier = 2.0;
  const auto tight_p = run(config, sched::Scheme::kProtean);
  const auto tight_m = run(config, sched::Scheme::kMoleculeBeta);
  EXPECT_LT(loose_p.slo_compliance_pct - tight_p.slo_compliance_pct, 6.0);
  EXPECT_GT(loose_m.slo_compliance_pct - tight_m.slo_compliance_pct, 10.0);
}

TEST(PaperClaims, TwitterSurgesHurtConsolidators) {
  // Fig. 11: PROTEAN ~99.9% under the erratic trace.
  auto config = quick("MobileNet");
  config.trace.kind = trace::TraceKind::kTwitter;
  config.trace.scale_to_peak = true;
  const auto protean = run(config, sched::Scheme::kProtean);
  const auto infless = run(config, sched::Scheme::kInflessLlama);
  EXPECT_GT(protean.slo_compliance_pct, 98.0);
  EXPECT_LT(infless.slo_compliance_pct, 70.0);
}

TEST(PaperClaims, BeTailStaysBoundedInPrimaryRuns) {
  // Section 6.1.4: BE P99 stays within the user-facing window even though
  // PROTEAN deprioritizes BE work. (Paper: < 200 ms on hardware; our
  // simulator-scale bound is ~3x the strict SLO.)
  const auto config = quick("ResNet 50");
  const auto report = run(config, sched::Scheme::kProtean);
  EXPECT_LT(report.be_p99_ms, report.slo_ms);
}

TEST(PaperClaims, DelayedTerminationPreventsColdStartStorms) {
  // Section 4.2: keep-alive cuts cold starts by ~98% vs immediate
  // scale-down (which collapses outright at this rate).
  auto config = quick("ResNet 50");
  config.scheme = sched::Scheme::kProtean;
  const auto keep = run_experiment(config);
  config.cluster.keep_alive = 0.0;
  const auto immediate = run_experiment(config);
  EXPECT_LT(keep.cold_starts + 1,
            (immediate.cold_starts + 1) / 10);
  EXPECT_GT(keep.slo_compliance_pct, immediate.slo_compliance_pct);
}

// Figs. 6 and 10 run at the benches' default horizon (bench_config: 60 s,
// default warmup), where EXPERIMENTS.md records them.
ExperimentConfig bench_like(const char* model) {
  return primary_config(model, 60.0);
}

TEST(PaperClaims, InflessVgg19TailIsInterferenceDominated) {
  // Fig. 6: INFless's consolidation puts MPS interference at the top of
  // the heavy-interference model's P99 bar (paper: 75% of VGG 19's tail).
  const auto r = run(bench_like("VGG 19"), sched::Scheme::kInflessLlama);
  const metrics::Breakdown& b = r.tail_breakdown;
  for (const double other :
       {b.queue, b.cold, b.min_time, b.deficiency, b.swap}) {
    EXPECT_GT(b.interference, other);
  }
  EXPECT_GT(b.interference, 0.45 * b.total());
}

TEST(PaperClaims, ProteanBeatsInflessOnSloGoodThroughput) {
  // Fig. 10a: raw strict throughput ties (every stable scheme completes the
  // offered load); the SLO-good part separates PROTEAN from INFless.
  const auto config = bench_like("DenseNet 121");
  const auto protean = run(config, sched::Scheme::kProtean);
  const auto infless = run(config, sched::Scheme::kInflessLlama);
  EXPECT_GT(protean.goodput_strict, infless.goodput_strict);
}

}  // namespace
}  // namespace protean::harness
