// Contract tests for the Collector's exact latency store: percentile
// queries select in place, so the store's order is unspecified, but every
// query result, the mean, and the sample multiset must not depend on which
// queries ran before.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "harness/experiment.h"
#include "metrics/collector.h"
#include "metrics/stats.h"
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

}  // namespace
}  // namespace protean::metrics
