// End-to-end regression locks for the paper's headline claims.
//
// Each claim takes its config from the paper row and cell that bench_paper
// prints (harness/paper_rows.h) and asserts the *orderings and regimes*
// EXPERIMENTS.md documents, so calibration drift that silently breaks a
// reproduced result fails CI instead.
#include <gtest/gtest.h>

#include <algorithm>

#include "harness/paper_rows.h"

namespace protean::harness {
namespace {

// The claims replay each figure's cell at a shorter horizon than the one
// bench_paper prints at (kPaperHorizon), so the suite stays fast. This is
// the only way a claim's config departs from its row.
constexpr Duration kClaimHorizon = 45.0;
constexpr Duration kClaimWarmup = 15.0;

/// The cell `label` of paper row `id`, at the claims' horizon.
PaperCell quick(const char* id, const char* label) {
  auto cell = paper_cell(id, label, kClaimHorizon);
  cell.config.warmup = kClaimWarmup;
  return cell;
}

/// One run the cell's figure prints.
Report run(const PaperCell& cell, sched::Scheme scheme) {
  EXPECT_NE(std::find(cell.schemes.begin(), cell.schemes.end(), scheme),
            cell.schemes.end())
      << cell.label << " does not print " << sched::scheme_name(scheme);
  return run_experiment(ExperimentConfig(cell.config).with_scheme(scheme));
}

/// Every run the cell's figure prints, in its scheme order.
std::vector<Report> run_all(const PaperCell& cell) {
  return run_schemes(cell.config, cell.schemes);
}

TEST(PaperClaims, ProteanDominatesVisionSloCompliance) {
  // Fig. 5: PROTEAN >= 96% on every vision model class representative and
  // strictly above every baseline.
  for (const char* model : {"ResNet 50", "ShuffleNet V2"}) {
    const auto reports = run_all(quick("fig5", model));
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
  const auto cell = quick("fig12", "ALBERT");
  const auto infless = run(cell, sched::Scheme::kInflessLlama);
  const auto protean = run(cell, sched::Scheme::kProtean);
  EXPECT_LT(infless.slo_compliance_pct, 10.0);
  EXPECT_GT(protean.slo_compliance_pct, 80.0);
  // The paper's "up to ~93% more" gap.
  EXPECT_GT(protean.slo_compliance_pct - infless.slo_compliance_pct, 75.0);
}

TEST(PaperClaims, Table4AllStrictOrdering) {
  const auto reports = run_all(quick("table4", "ResNet 50"));
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
  // "Tail latency up to 82% less" (Fig. 8): PROTEAN's P99 is a small
  // fraction of the worst baseline's.
  const auto reports = run_all(quick("fig8", "SENet 18"));
  double worst = 0.0;
  for (std::size_t i = 0; i + 1 < reports.size(); ++i) {
    worst = std::max(worst, reports[i].strict_p99_ms);
  }
  EXPECT_LT(reports.back().strict_p99_ms, 0.4 * worst);
}

TEST(PaperClaims, HybridSpotSavesUpTo70Percent) {
  // Fig. 9 / Table 3: at high availability the hybrid fleet is all-spot.
  const auto report =
      run(quick("fig9", "hybrid P_rev=0"), sched::Scheme::kProtean);
  EXPECT_NEAR(report.cost_usd / report.cost_on_demand_ref_usd, 0.30, 0.01);
  EXPECT_GT(report.slo_compliance_pct, 96.0);
}

TEST(PaperClaims, SpotOnlyCollapsesAtLowAvailability) {
  const auto spot_only =
      run(quick("fig9", "spot-only P_rev=0.708"), sched::Scheme::kProtean);
  const auto hybrid =
      run(quick("fig9", "hybrid P_rev=0.708"), sched::Scheme::kProtean);

  // Paper Fig. 9b: spot-only 0.68% vs PROTEAN hybrid 99.35%.
  EXPECT_LT(spot_only.slo_compliance_pct, 40.0);
  EXPECT_GT(hybrid.slo_compliance_pct, 90.0);
  EXPECT_LT(spot_only.cost_usd, hybrid.cost_usd);
}

TEST(PaperClaims, OracleGapIsSmall) {
  // Fig. 17: Oracle ahead by <= ~1 point of compliance.
  const auto cell = quick("fig17", "VGG 19");
  const auto protean = run(cell, sched::Scheme::kProtean);
  const auto oracle = run(cell, sched::Scheme::kOracle);
  EXPECT_LT(oracle.slo_compliance_pct - protean.slo_compliance_pct, 2.0);
  EXPECT_GT(protean.slo_compliance_pct, 96.0);
}

TEST(PaperClaims, TightSloHurtsBaselinesMoreThanProtean) {
  // Fig. 15: at 2x targets baselines lose double digits, PROTEAN ~5.
  const auto loose = quick("fig15", "ResNet 50 3x");
  const auto tight = quick("fig15", "ResNet 50 2x");
  const auto loose_p = run(loose, sched::Scheme::kProtean);
  const auto loose_m = run(loose, sched::Scheme::kMoleculeBeta);
  const auto tight_p = run(tight, sched::Scheme::kProtean);
  const auto tight_m = run(tight, sched::Scheme::kMoleculeBeta);
  EXPECT_LT(loose_p.slo_compliance_pct - tight_p.slo_compliance_pct, 6.0);
  EXPECT_GT(loose_m.slo_compliance_pct - tight_m.slo_compliance_pct, 10.0);
}

TEST(PaperClaims, TwitterSurgesHurtConsolidators) {
  // Fig. 11: PROTEAN ~99.9% under the erratic trace.
  const auto cell = quick("fig11", "MobileNet");
  const auto protean = run(cell, sched::Scheme::kProtean);
  const auto infless = run(cell, sched::Scheme::kInflessLlama);
  EXPECT_GT(protean.slo_compliance_pct, 98.0);
  EXPECT_LT(infless.slo_compliance_pct, 70.0);
}

TEST(PaperClaims, BeTailStaysBoundedInPrimaryRuns) {
  // Section 6.1.4: BE P99 stays within the user-facing window even though
  // PROTEAN deprioritizes BE work. (Paper: < 200 ms on hardware; our
  // simulator-scale bound is ~3x the strict SLO.)
  const auto report = run(quick("fig6", "ResNet 50"), sched::Scheme::kProtean);
  EXPECT_LT(report.be_p99_ms, report.slo_ms);
}

TEST(PaperClaims, DelayedTerminationPreventsColdStartStorms) {
  // Section 4.2: keep-alive cuts cold starts by ~98% vs immediate
  // scale-down (which collapses outright at this rate).
  const auto keep = run(quick("ablation", "600 s"), sched::Scheme::kProtean);
  const auto immediate =
      run(quick("ablation", "immediate"), sched::Scheme::kProtean);
  EXPECT_LT(keep.cold_starts + 1,
            (immediate.cold_starts + 1) / 10);
  EXPECT_GT(keep.slo_compliance_pct, immediate.slo_compliance_pct);
}

// Figs. 6 and 10 are locked at paper_cell's default horizon, the one
// bench_paper prints them at and EXPERIMENTS.md records them at.

TEST(PaperClaims, InflessVgg19TailIsInterferenceDominated) {
  // Fig. 6: INFless's consolidation puts MPS interference at the top of
  // the heavy-interference model's P99 bar (paper: 75% of VGG 19's tail).
  const auto r =
      run(paper_cell("fig6", "VGG 19"), sched::Scheme::kInflessLlama);
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
  const auto cell = paper_cell("fig10", "DenseNet 121");
  const auto protean = run(cell, sched::Scheme::kProtean);
  const auto infless = run(cell, sched::Scheme::kInflessLlama);
  EXPECT_GT(protean.goodput_strict, infless.goodput_strict);
}

}  // namespace
}  // namespace protean::harness
