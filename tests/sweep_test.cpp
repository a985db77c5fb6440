// Tests for the parallel sweep harness: grid expansion, deterministic
// ordering, jobs-invariance, multi-seed aggregation, and the simulator
// cancellation bookkeeping long sweeps lean on.
#include "harness/sweep.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "sim/simulator.h"

namespace protean::harness {
namespace {

// Full paper rates/fleet at a short horizon so the suite stays fast.
ExperimentConfig quick_config() {
  return primary_config("ResNet 50", /*horizon=*/25.0).with_warmup(8.0);
}

void expect_reports_identical(const Report& a, const Report& b) {
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.strict_emitted, b.strict_emitted);
  EXPECT_EQ(a.strict_completed, b.strict_completed);
  EXPECT_EQ(a.be_completed, b.be_completed);
  EXPECT_EQ(a.cold_starts, b.cold_starts);
  EXPECT_EQ(a.reconfigurations, b.reconfigurations);
  EXPECT_DOUBLE_EQ(a.slo_compliance_pct, b.slo_compliance_pct);
  EXPECT_DOUBLE_EQ(a.strict_p50_ms, b.strict_p50_ms);
  EXPECT_DOUBLE_EQ(a.strict_p99_ms, b.strict_p99_ms);
  EXPECT_DOUBLE_EQ(a.be_p99_ms, b.be_p99_ms);
  EXPECT_DOUBLE_EQ(a.gpu_util_pct, b.gpu_util_pct);
  EXPECT_DOUBLE_EQ(a.cost_usd, b.cost_usd);
}

TEST(SweepAxis, ParsesWellFormedSpecs) {
  const auto axis = SweepAxis::parse("rps=1000:5000:1000");
  ASSERT_TRUE(axis);
  EXPECT_EQ(axis->param, SweepAxis::Param::kRps);
  EXPECT_DOUBLE_EQ(axis->lo, 1000.0);
  EXPECT_DOUBLE_EQ(axis->hi, 5000.0);
  EXPECT_DOUBLE_EQ(axis->step, 1000.0);
  EXPECT_EQ(axis->values(), (std::vector<double>{1000, 2000, 3000, 4000, 5000}));

  const auto frac = SweepAxis::parse("strict-frac=0.25:0.75:0.25");
  ASSERT_TRUE(frac);
  EXPECT_EQ(frac->values().size(), 3u);
}

TEST(SweepAxis, RejectsMalformedSpecs) {
  EXPECT_FALSE(SweepAxis::parse("rps=1000:5000"));       // missing step
  EXPECT_FALSE(SweepAxis::parse("bogus=1:2:1"));         // unknown axis
  EXPECT_FALSE(SweepAxis::parse("rps=5000:1000:500"));   // hi < lo
  EXPECT_FALSE(SweepAxis::parse("rps=1:2:0"));           // zero step
  EXPECT_FALSE(SweepAxis::parse("rps=a:b:c"));           // not numbers
  EXPECT_FALSE(SweepAxis::parse("rps"));                 // no '='
  EXPECT_FALSE(SweepAxis::parse("rps=1:nan:1"));         // non-finite
  EXPECT_FALSE(SweepAxis::parse("rps=1:2:inf"));         // non-finite
  EXPECT_FALSE(SweepAxis::parse("rps=-5:0:5"));          // rps must be > 0
  EXPECT_FALSE(SweepAxis::parse("rps=0:10:5"));
  EXPECT_FALSE(SweepAxis::parse("nodes=0:1:1"));         // nodes 1..1024
  EXPECT_FALSE(SweepAxis::parse("nodes=1:2000:1"));
  EXPECT_FALSE(SweepAxis::parse("strict-frac=0.5:2:1"));  // beyond [0, 1]
  EXPECT_FALSE(SweepAxis::parse("strict-frac=-0.5:0.5:0.5"));
  EXPECT_FALSE(SweepAxis::parse("p-rev=0:3:2"));         // beyond [0, 1]
  EXPECT_FALSE(SweepAxis::parse("slo-mult=-1:0:1"));     // slo-mult >= 1
  EXPECT_FALSE(SweepAxis::parse("slo-mult=0.5:2:0.5"));
  EXPECT_FALSE(SweepAxis::parse("rps=1:1e12:1e-9"));     // too many points
  const auto widest = SweepAxis::parse("rps=1:10000:1");  // the point cap
  ASSERT_TRUE(widest);
  EXPECT_EQ(widest->values().size(), 10000u);
  EXPECT_FALSE(SweepAxis::parse("rps=1:10001:1"));
}

TEST(SweepAxis, AppliesToTheRightField) {
  ExperimentConfig config;
  SweepAxis axis;
  axis.param = SweepAxis::Param::kNodes;
  axis.apply(config, 12.0);
  EXPECT_EQ(config.cluster.node_count, 12u);
  axis.param = SweepAxis::Param::kSloMult;
  axis.apply(config, 2.5);
  EXPECT_DOUBLE_EQ(config.cluster.slo_multiplier, 2.5);
  axis.param = SweepAxis::Param::kPRev;
  axis.apply(config, 0.354);
  EXPECT_DOUBLE_EQ(config.cluster.market.p_rev, 0.354);
}

TEST(SweepConfig, GridIsRowMajorAxisSchemeSeed) {
  SweepConfig sweep;
  sweep.base = quick_config().with_seed(100);
  sweep.schemes = {sched::Scheme::kProtean, sched::Scheme::kGpulet};
  sweep.replications = 3;
  sweep.axis = *SweepAxis::parse("nodes=4:8:4");

  const auto grid = sweep.grid();
  ASSERT_EQ(grid.size(), 2u * 2u * 3u);
  // First cell: nodes=4, Protean, seeds 100..102.
  EXPECT_EQ(grid[0].cluster.node_count, 4u);
  EXPECT_EQ(grid[0].scheme, sched::Scheme::kProtean);
  EXPECT_EQ(grid[0].seed, 100u);
  EXPECT_EQ(grid[2].seed, 102u);
  // Second cell: same axis value, next scheme.
  EXPECT_EQ(grid[3].scheme, sched::Scheme::kGpulet);
  EXPECT_EQ(grid[3].cluster.node_count, 4u);
  // Second axis value starts after all schemes × seeds.
  EXPECT_EQ(grid[6].cluster.node_count, 8u);
  EXPECT_EQ(grid[6].scheme, sched::Scheme::kProtean);
  EXPECT_EQ(grid[6].seed, 100u);
}

// A multi-run grid gives each run its own trace and telemetry file, the
// grid index inserted before the extension; a one-run grid keeps the path.
TEST(SweepConfig, GridIndexesEachRunsOutputPaths) {
  const std::pair<const char*, const char*> kPaths[] = {
      {"out/run.json", "out/run-2.json"},
      {"runs/m.jsonl", "runs/m-2.jsonl"},
      {"noext", "noext-2"},
      // A dot in a directory name is not an extension.
      {"v1.2/trace", "v1.2/trace-2"},
      {"dir.d/noext", "dir.d/noext-2"},
  };
  for (const auto& [path, third] : kPaths) {
    SweepConfig sweep;
    sweep.base = quick_config();
    sweep.base.trace_out.path = path;
    sweep.base.telemetry.path = path;
    sweep.replications = 3;
    const auto grid = sweep.grid();
    ASSERT_EQ(grid.size(), 3u);
    EXPECT_EQ(grid[2].trace_out.path, third);
    EXPECT_EQ(grid[2].telemetry.path, third);
    sweep.replications = 1;
    EXPECT_EQ(sweep.grid()[0].trace_out.path, path);
    EXPECT_EQ(sweep.grid()[0].telemetry.path, path);
  }
  // Disabled outputs stay disabled.
  SweepConfig sweep;
  sweep.base = quick_config();
  sweep.replications = 2;
  EXPECT_FALSE(sweep.grid()[1].trace_out.enabled());
  EXPECT_FALSE(sweep.grid()[1].telemetry.enabled());
}

TEST(Summarize, MatchesHandComputedMoments) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  const MetricSummary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  // Unbiased stddev: sqrt(((1.5^2)*2 + (0.5^2)*2) / 3) = sqrt(5/3).
  EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_NEAR(s.ci95, 1.96 * std::sqrt(5.0 / 3.0) / 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
}

TEST(SweepRunner, ParallelRunsMatchSerialBitForBit) {
  SweepConfig sweep;
  sweep.base = quick_config();
  sweep.schemes = {sched::Scheme::kProtean, sched::Scheme::kMoleculeBeta,
                   sched::Scheme::kNaiveSlicing};
  sweep.replications = 2;

  const auto serial = SweepRunner(1).run_grid(sweep);
  const auto parallel = SweepRunner(8).run_grid(sweep);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    expect_reports_identical(serial[i], parallel[i]);
  }
}

TEST(SweepRunner, OrderingIsDeterministicAcrossRuns) {
  SweepConfig sweep;
  sweep.base = quick_config();
  sweep.schemes = {sched::Scheme::kMoleculeBeta, sched::Scheme::kProtean};
  sweep.replications = 2;

  const auto first = SweepRunner(4).run_grid(sweep);
  const auto second = SweepRunner(2).run_grid(sweep);
  ASSERT_EQ(first.size(), 4u);
  // Row-major order: scheme blocks of `replications` reports each.
  EXPECT_EQ(first[0].scheme, "Molecule (beta)");
  EXPECT_EQ(first[1].scheme, "Molecule (beta)");
  EXPECT_EQ(first[2].scheme, "PROTEAN");
  EXPECT_EQ(first[3].scheme, "PROTEAN");
  for (std::size_t i = 0; i < first.size(); ++i) {
    SCOPED_TRACE(i);
    expect_reports_identical(first[i], second[i]);
  }
}

TEST(SweepRunner, AggregationMatchesHandComputedStatistics) {
  SweepConfig sweep;
  sweep.base = quick_config();
  sweep.schemes = {sched::Scheme::kProtean};
  sweep.replications = 3;

  const auto cells = SweepRunner(3).run_aggregate(sweep);
  ASSERT_EQ(cells.size(), 1u);
  const AggregateReport& cell = cells[0];
  EXPECT_EQ(cell.scheme, "PROTEAN");
  ASSERT_EQ(cell.per_seed.size(), 3u);
  EXPECT_EQ(cell.seeds, (std::vector<std::uint64_t>{42, 43, 44}));

  // Seeds must actually differ for the aggregation to mean anything.
  EXPECT_NE(cell.per_seed[0].strict_completed,
            cell.per_seed[1].strict_completed);

  std::vector<double> compliance;
  for (const Report& r : cell.per_seed) {
    compliance.push_back(r.slo_compliance_pct);
  }
  const double m =
      (compliance[0] + compliance[1] + compliance[2]) / 3.0;
  double ss = 0.0;
  for (double x : compliance) ss += (x - m) * (x - m);
  const double sd = std::sqrt(ss / 2.0);
  EXPECT_NEAR(cell.slo_compliance_pct.mean, m, 1e-12);
  EXPECT_NEAR(cell.slo_compliance_pct.stddev, sd, 1e-12);
  EXPECT_NEAR(cell.slo_compliance_pct.ci95, 1.96 * sd / std::sqrt(3.0), 1e-12);
}

TEST(SweepRunner, RunSchemesIsAThinWrapperOverTheSweep) {
  const auto config = quick_config();
  const auto via_wrapper = run_schemes(config, sched::paper_schemes());

  SweepConfig sweep;
  sweep.base = config;
  sweep.schemes = sched::paper_schemes();
  const auto via_sweep = SweepRunner(8).run_grid(sweep);

  ASSERT_EQ(via_wrapper.size(), via_sweep.size());
  for (std::size_t i = 0; i < via_wrapper.size(); ++i) {
    SCOPED_TRACE(i);
    expect_reports_identical(via_wrapper[i], via_sweep[i]);
  }
}

// Regression: stopping a PeriodicTask whose event already fired used to
// leave a tombstone forever and corrupt the pending-event accounting;
// long sweeps stop thousands of tasks.
TEST(SimulatorCancel, StopAfterFireDoesNotCorruptAccounting) {
  sim::Simulator sim;
  int ticks = 0;
  auto task = std::make_unique<sim::PeriodicTask>(sim, 1.0,
                                                  [&ticks] { ++ticks; });
  sim.schedule_at(10.0, [] {});  // unrelated pending event
  sim.run_until(3.5);
  EXPECT_EQ(ticks, 3);

  task->stop();            // cancels the armed tick
  task->stop();            // idempotent
  EXPECT_EQ(sim.pending(), 1u);  // only the unrelated event remains

  sim.run_to_completion();
  EXPECT_EQ(ticks, 3);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorCancel, CancellingAnExecutedEventIsANoOp) {
  sim::Simulator sim;
  const auto fired = sim.schedule_at(1.0, [] {});
  sim.schedule_at(5.0, [] {});
  sim.run_until(2.0);

  EXPECT_FALSE(sim.cancel(fired));   // already executed
  EXPECT_EQ(sim.pending(), 1u);      // accounting untouched
  EXPECT_FALSE(sim.cancel(fired));
  EXPECT_EQ(sim.pending(), 1u);

  const auto live = sim.schedule_at(6.0, [] {});
  EXPECT_TRUE(sim.cancel(live));
  EXPECT_FALSE(sim.cancel(live));    // double-cancel
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.run_to_completion(), 1u);
}

TEST(SimulatorCancel, ManyStoppedPeriodicTasksLeaveNothingPending) {
  sim::Simulator sim;
  // Mimic a sweep stopping tasks mid-flight: interleave fires and stops.
  for (int round = 0; round < 100; ++round) {
    sim::PeriodicTask task(sim, 0.5, [] {});
    sim.run_until(sim.now() + 1.25);  // a couple of fires, then stop
    task.stop();
  }
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(sim.step());
}

}  // namespace
}  // namespace protean::harness
