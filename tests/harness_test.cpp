// Tests for the experiment harness.
#include "harness/experiment.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "harness/paper_rows.h"

namespace protean::harness {
namespace {

ExperimentConfig quick_config(const char* model = "ResNet 50") {
  // Full paper rates and fleet, shorter horizon. Scaling the rate down
  // instead would shrink batch fill below the gateway timeout and double
  // the effective load through partial batches.
  ExperimentConfig config = primary_config(model, /*horizon=*/30.0);
  config.warmup = 10.0;
  return config;
}

TEST(Harness, PrimaryConfigMatchesPaperSetup) {
  const auto config = primary_config("ResNet 50");
  EXPECT_EQ(config.cluster.node_count, 8u);
  EXPECT_DOUBLE_EQ(config.trace.target_rps, 5000.0);
  EXPECT_EQ(config.trace.kind, trace::TraceKind::kWiki);
  EXPECT_DOUBLE_EQ(config.strict_fraction, 0.5);
  EXPECT_DOUBLE_EQ(config.cluster.slo_multiplier, 3.0);
}

TEST(Harness, LanguageModelsGet128Rps) {
  const auto config = primary_config("ALBERT");
  EXPECT_DOUBLE_EQ(config.trace.target_rps, 128.0);
}

TEST(Harness, ReportFieldsAreConsistent) {
  auto r = run_experiment(quick_config());
  EXPECT_EQ(r.scheme, "PROTEAN");
  EXPECT_EQ(r.strict_model, "ResNet 50");
  EXPECT_GT(r.strict_completed, 0u);
  EXPECT_GT(r.be_completed, 0u);
  EXPECT_GE(r.slo_compliance_pct, 0.0);
  EXPECT_LE(r.slo_compliance_pct, 100.0);
  EXPECT_GT(r.strict_p50_ms, 0.0);
  EXPECT_GE(r.strict_p99_ms, r.strict_p50_ms);
  EXPECT_NEAR(r.min_possible_ms, 195.0, 1.0);
  EXPECT_NEAR(r.slo_ms, 585.0, 1.0);
  EXPECT_GT(r.throughput_total, r.throughput_strict);
  EXPECT_GT(r.gpu_util_pct, 0.0);
  EXPECT_GT(r.cost_usd, 0.0);
}

TEST(Harness, DeterministicForSameSeed) {
  auto a = run_experiment(quick_config());
  auto b = run_experiment(quick_config());
  EXPECT_EQ(a.strict_completed, b.strict_completed);
  EXPECT_DOUBLE_EQ(a.slo_compliance_pct, b.slo_compliance_pct);
  EXPECT_DOUBLE_EQ(a.strict_p99_ms, b.strict_p99_ms);
}

TEST(Harness, SeedChangesOutcomeSlightly) {
  auto config = quick_config();
  auto a = run_experiment(config);
  config.seed = 777;
  auto b = run_experiment(config);
  EXPECT_NE(a.strict_completed, b.strict_completed);
}

TEST(Harness, RunSchemesCoversAllRequested) {
  const auto reports = run_schemes(quick_config(), sched::paper_schemes());
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_EQ(reports[0].scheme, "Molecule (beta)");
  EXPECT_EQ(reports[3].scheme, "PROTEAN");
}

TEST(Harness, TailBreakdownSumsNearP99) {
  auto r = run_experiment(quick_config());
  const double total_ms = r.tail_breakdown.total() * 1e3;
  EXPECT_GT(total_ms, 0.0);
  // The tail attribution reconstructs a worst-request latency of the same
  // order as the P99 (weighted differently, so only a loose band).
  EXPECT_GT(total_ms, 0.3 * r.strict_p99_ms);
}

TEST(Harness, LatencySamplesOnlyWhenRequested) {
  auto config = quick_config();
  auto without = run_experiment(config);
  EXPECT_TRUE(without.strict_latencies.empty());
  config.keep_latency_samples = true;
  auto with = run_experiment(config);
  EXPECT_EQ(with.strict_latencies.size(), with.strict_completed);
}

TEST(Harness, TightSloReducesCompliance) {
  auto config = quick_config();
  config.scheme = sched::Scheme::kMoleculeBeta;
  auto loose = run_experiment(config);
  config.cluster.slo_multiplier = 1.2;
  auto tight = run_experiment(config);
  EXPECT_LT(tight.slo_compliance_pct, loose.slo_compliance_pct);
}

TEST(Harness, OracleGetsZeroReconfigureDowntime) {
  auto config = quick_config();
  config.scheme = sched::Scheme::kOracle;
  auto r = run_experiment(config);
  EXPECT_EQ(r.scheme, "Oracle");
  EXPECT_GT(r.strict_completed, 0u);
}

TEST(Harness, SpotMarketCostsFlowIntoReport) {
  auto config = quick_config();
  config.cluster.market.policy = spot::ProcurementPolicy::kHybrid;
  config.cluster.market.p_rev = 0.0;
  auto r = run_experiment(config);
  // All-spot fleet: ~30% of the on-demand reference (Table 3 savings).
  EXPECT_NEAR(r.cost_usd / r.cost_on_demand_ref_usd, 0.30, 0.01);
}

TEST(Harness, PaperCellsAreUniqueAndLookedUpByLabel) {
  // paper_cell finds a cell by (row id, label), so both must be unique.
  std::set<std::string> ids;
  for (const auto& row : paper_rows(kPaperHorizon)) {
    EXPECT_TRUE(ids.insert(row.id).second) << row.id;
    std::set<std::string> labels;
    for (const auto& cell : row.cells) {
      EXPECT_TRUE(labels.insert(cell.label).second)
          << row.id << ": " << cell.label;
      EXPECT_FALSE(cell.schemes.empty()) << row.id << ": " << cell.label;
      EXPECT_EQ(cell.config.trace.horizon, kPaperHorizon);
    }
  }
  const auto tight = paper_cell("fig15", "VGG 19 2x", 45.0).config;
  EXPECT_EQ(tight.cluster.slo_multiplier, 2.0);
  EXPECT_EQ(tight.trace.horizon, 45.0);
  EXPECT_THROW(paper_cell("fig4", "ResNet 50"), std::invalid_argument);
  EXPECT_THROW(paper_cell("fig5", "GPT-2"), std::invalid_argument);
}

}  // namespace
}  // namespace protean::harness
