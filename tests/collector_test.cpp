// Contract tests for the Collector's exact latency store: percentile
// queries select in place, so the store's order is unspecified, but every
// query result, the mean, and the sample multiset must not depend on which
// queries ran before. Also: the Fig. 6 breakdown, folded from the exact
// decomposition, reproduces the clamped formulas it replaced wherever those
// formulas were well defined.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "cluster/cluster.h"
#include "harness/experiment.h"
#include "metrics/collector.h"
#include "metrics/stats.h"
#include "sched/registry.h"
#include "trace/driver.h"
#include "workload/latency.h"
#include "workload/model.h"

namespace protean::metrics {
namespace {

// Seeded batches of varied size and latency, strict and BE interleaved.
std::vector<workload::Batch> seeded_batches(int n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> wait(0.05, 1.5);
  std::uniform_int_distribution<int> size(1, 16);
  std::vector<workload::Batch> out;
  for (int i = 0; i < n; ++i) {
    workload::Batch b;
    b.id = static_cast<BatchId>(i + 1);
    b.model = &workload::ModelCatalog::instance().by_name("ResNet 50");
    b.strict = i % 3 != 0;
    b.count = size(rng);
    b.first_arrival = 0.01 * i;
    b.last_arrival = b.first_arrival + 0.02;
    b.formed_at = b.last_arrival;
    b.slo = b.strict ? 0.6 : kNeverTime;
    b.completed_at = b.last_arrival + wait(rng);
    b.exec_time = 0.05;
    b.exec_start = b.completed_at - b.exec_time;
    b.solo_min = 0.05;
    b.solo_on_slice = 0.05;
    out.push_back(b);
  }
  return out;
}

Collector filled(const std::vector<workload::Batch>& batches) {
  Collector c;
  for (const auto& b : batches) c.record(b);
  return c;
}

std::vector<float> sorted(std::vector<float> xs) {
  std::sort(xs.begin(), xs.end());
  return xs;
}

const double kPs[] = {50.0, 99.0, 0.0, 100.0, 99.9, 10.0};

TEST(CollectorStore, QueryOrderDoesNotChangeResults) {
  const auto batches = seeded_batches(400, 11);
  // Reference values: the by-value percentile over untouched copies.
  const Collector pristine = filled(batches);
  const std::vector<float> strict = pristine.strict_latencies();
  const std::vector<float> be = pristine.be_latencies();
  const double strict_mean = pristine.strict_mean();
  const double be_mean = pristine.be_mean();

  Collector forward = filled(batches);
  Collector backward = filled(batches);
  for (int round = 0; round < 2; ++round) {
    for (double p : kPs) {
      EXPECT_EQ(forward.strict_percentile(p), percentile(strict, p)) << p;
      EXPECT_EQ(forward.be_percentile(p), percentile(be, p)) << p;
    }
    for (auto it = std::rbegin(kPs); it != std::rend(kPs); ++it) {
      EXPECT_EQ(backward.be_percentile(*it), percentile(be, *it)) << *it;
      EXPECT_EQ(backward.strict_percentile(*it), percentile(strict, *it))
          << *it;
    }
    // The mean is the recording-order sum whatever the queries reordered.
    EXPECT_EQ(forward.strict_mean(), strict_mean);
    EXPECT_EQ(backward.be_mean(), be_mean);
  }
}

TEST(CollectorStore, RecordingAfterQueriesMatchesAFreshCollector) {
  const auto batches = seeded_batches(300, 12);
  Collector interleaved;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    interleaved.record(batches[i]);
    if (i % 50 == 0) {
      interleaved.strict_percentile(99.0);
      interleaved.be_percentile(50.0);
    }
  }
  const Collector fresh = filled(batches);
  EXPECT_EQ(interleaved.strict_mean(), fresh.strict_mean());
  EXPECT_EQ(interleaved.be_mean(), fresh.be_mean());
  for (double p : kPs) {
    EXPECT_EQ(interleaved.strict_percentile(p), fresh.strict_percentile(p));
    EXPECT_EQ(interleaved.be_percentile(p), fresh.be_percentile(p));
  }
}

TEST(CollectorStore, QueriesKeepTheSampleMultiset) {
  const auto batches = seeded_batches(250, 13);
  const Collector collector = filled(batches);
  const std::vector<float> strict_before = sorted(collector.strict_latencies());
  const std::vector<float> be_before = sorted(collector.be_latencies());
  for (double p : kPs) {
    collector.strict_percentile(p);
    collector.be_percentile(p);
  }
  EXPECT_EQ(sorted(collector.strict_latencies()), strict_before);
  EXPECT_EQ(sorted(collector.be_latencies()), be_before);
}

TEST(CollectorStore, TakeStrictLatenciesHandsOverEverySample) {
  const auto batches = seeded_batches(250, 14);
  Collector collector = filled(batches);
  const std::vector<float> before = sorted(collector.strict_latencies());
  const double p99 = collector.strict_percentile(99.0);
  const std::uint64_t completed = collector.strict_completed();

  std::vector<float> taken = collector.take_strict_latencies();
  EXPECT_EQ(taken.size(), completed);
  EXPECT_EQ(percentile(taken, 99.0), p99);
  EXPECT_EQ(sorted(std::move(taken)), before);
  // The store is empty; counters and the BE side are untouched.
  EXPECT_TRUE(collector.strict_latencies().empty());
  EXPECT_EQ(collector.strict_completed(), completed);
  EXPECT_FALSE(collector.be_latencies().empty());
}

TEST(CollectorStore, KeepingSamplesLeavesReportedPercentilesUnchanged) {
  harness::ExperimentConfig config =
      harness::primary_config("ResNet 50", /*horizon=*/30.0);
  config.warmup = 10.0;
  const harness::Report without = harness::run_experiment(config);
  const harness::Report with =
      harness::run_experiment(config.with_latency_samples());
  ASSERT_EQ(with.strict_latencies.size(), with.strict_completed);
  EXPECT_EQ(with.strict_p50_ms, without.strict_p50_ms);
  EXPECT_EQ(with.strict_p99_ms, without.strict_p99_ms);
  EXPECT_EQ(with.strict_mean_ms, without.strict_mean_ms);
  EXPECT_EQ(to_ms(percentile(with.strict_latencies, 99.0)),
            with.strict_p99_ms);
}

// ------------------------------------------------ Fig. 6 fold vs. clamps --

// The clamped per-lane formulas the Fig. 6 breakdown used before it was
// folded from the exact decomposition, copied verbatim from the retired
// Batch accessors and Collector::record(). Kept as the reference.
double legacy_queue(const workload::Batch& b) {
  const Duration d = (b.exec_start - b.first_arrival) - b.cold_start;
  return d > 0.0 ? d : 0.0;
}
double legacy_deficiency(const workload::Batch& b) {
  const Duration d = b.solo_on_slice - b.solo_min;
  return d > 0.0 ? d : 0.0;
}
double legacy_interference(const workload::Batch& b) {
  const Duration d = b.exec_time - b.solo_on_slice - b.swap_stall;
  return d > 0.0 ? d : 0.0;
}
double legacy_swap(const workload::Batch& b) {
  return b.swap_stall > 0.0 ? b.swap_stall : 0.0;
}

Breakdown legacy_breakdown(const workload::Batch& b) {
  Breakdown out;
  out.cold = b.cold_start;
  out.queue = legacy_queue(b);
  out.min_time = b.solo_min;
  out.deficiency = legacy_deficiency(b);
  out.interference = legacy_interference(b);
  out.swap = legacy_swap(b);
  return out;
}

// Where no clamp fires and execution ends at exec_start + exec_time, the
// clamped and the exact split must agree.
bool non_degenerate(const workload::Batch& b) {
  return b.stage <= 0 &&
         (b.exec_start - b.first_arrival) - b.cold_start >= 0.0 &&
         b.solo_on_slice >= b.solo_min &&
         b.exec_time - b.solo_on_slice - b.swap_stall >= 0.0 &&
         std::abs(b.completed_at - b.exec_start - b.exec_time) <= 1e-12;
}

void expect_fold_matches_legacy(const workload::Batch& b) {
  const Breakdown exact = fold(workload::decompose(b));
  const Breakdown legacy = legacy_breakdown(b);
  EXPECT_NEAR(exact.queue, legacy.queue, 1e-12) << b.id;
  EXPECT_NEAR(exact.cold, legacy.cold, 1e-12) << b.id;
  EXPECT_NEAR(exact.min_time, legacy.min_time, 1e-12) << b.id;
  EXPECT_NEAR(exact.deficiency, legacy.deficiency, 1e-12) << b.id;
  EXPECT_NEAR(exact.interference, legacy.interference, 1e-12) << b.id;
  EXPECT_NEAR(exact.swap, legacy.swap, 1e-12) << b.id;
}

TEST(Fig6Fold, MatchesClampedFormulasOnSeededBatches) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(0.0, 0.4);
  const auto* model = &workload::ModelCatalog::instance().by_name("ResNet 50");
  for (int i = 0; i < 2000; ++i) {
    workload::Batch b;
    b.id = static_cast<BatchId>(i + 1);
    b.model = model;
    b.strict = true;
    b.count = 1 + i % 8;
    b.first_arrival = 10.0 + 0.01 * i;
    b.last_arrival = b.first_arrival + u(rng) * 0.1;
    b.formed_at = b.last_arrival + u(rng) * 0.1;
    // Retry and blackout time sit inside the pre-execution wait, which
    // the clamped formula lumped into queueing.
    b.retry_overhead = i % 5 == 0 ? u(rng) : 0.0;
    b.reconfig_blackout = i % 7 == 0 ? u(rng) : 0.0;
    b.cold_start = i % 3 == 0 ? u(rng) : 0.0;
    b.weight_load = b.cold_start * 0.6;
    b.enqueued_at = b.formed_at;
    b.exec_start = b.formed_at + b.retry_overhead + b.reconfig_blackout +
                   b.cold_start + u(rng);
    b.solo_min = 0.01 + u(rng) * 0.1;
    b.solo_on_slice = b.solo_min + (i % 2 == 0 ? u(rng) * 0.1 : 0.0);
    b.swap_stall = i % 4 == 0 ? u(rng) * 0.1 : 0.0;
    b.exec_time = b.solo_on_slice + b.swap_stall + u(rng) * 0.2;
    b.completed_at = b.exec_start + b.exec_time;
    ASSERT_TRUE(non_degenerate(b)) << i;
    expect_fold_matches_legacy(b);
  }
}

TEST(Fig6Fold, MatchesClampedFormulasOnSimulatedBatches) {
  // Every gateway batch a short run records, through the collector's own
  // decomposition tap, across every paper scheme.
  for (const auto scheme : sched::paper_schemes()) {
    sim::Simulator sim;
    auto scheduler = sched::make_scheduler(scheme);
    cluster::ClusterConfig config;
    config.node_count = 2;
    std::uint64_t compared = 0;  // outlives the deployment's hook
    cluster::Cluster deployment(sim, config, *scheduler);
    deployment.collector().set_attr_batch_hook(
        [&compared](const workload::Batch& b,
                    const workload::Decomposition& d, double, double) {
          EXPECT_NEAR(d.total(), b.worst_latency(), 1e-9) << b.id;
          if (!non_degenerate(b)) return;
          ++compared;
          expect_fold_matches_legacy(b);
        });
    trace::DriverConfig dc;
    dc.trace.kind = trace::TraceKind::kConstant;
    dc.trace.target_rps = 1200.0;
    dc.trace.horizon = 20.0;
    dc.strict_model = &workload::ModelCatalog::instance().by_name("ResNet 50");
    dc.seed = 21;
    trace::WorkloadDriver driver(sim, dc, deployment.sink());
    deployment.start();
    driver.start();
    sim.run_until(20.0);
    deployment.flush_gateways();
    sim.run_until(35.0);
    EXPECT_GT(compared, 100u) << sched::scheme_name(scheme);
    EXPECT_EQ(deployment.collector().negative_component_clamps(), 0u);
    deployment.stop();
  }
}

}  // namespace
}  // namespace protean::metrics
