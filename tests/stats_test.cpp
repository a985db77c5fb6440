// Tests for the statistics toolkit and metrics collector.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "metrics/collector.h"
#include "metrics/stats.h"
#include "workload/model.h"

namespace protean::metrics {
namespace {

TEST(Stats, MeanAndStddev) {
  std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(stddev(xs), 2.138, 0.001);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({1.0}), 0.0);
}

TEST(Stats, PercentileInterpolatesBetweenRanks) {
  std::vector<float> xs = {10.0f, 20.0f, 30.0f, 40.0f};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 25.0);
  EXPECT_NEAR(percentile(xs, 75.0), 32.5, 1e-9);
}

TEST(Stats, PercentileHandlesEdgeCases) {
  EXPECT_DOUBLE_EQ(percentile(std::vector<float>{}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(std::vector<float>{7.0f}, 99.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile(std::vector<float>{3.0f, 1.0f}, 200.0), 3.0);
}

TEST(Stats, PercentileUnsortedInput) {
  std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 3.0);
}

// ---- select_percentiles vs the historical by-value percentile ------------

// Verbatim copy of the by-value percentile the collector and report used
// before select_percentiles existed: the reference every selection must
// reproduce bit for bit.
template <typename T>
double percentile_impl(std::vector<T> xs, double p) noexcept {
  if (xs.empty()) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, xs.size() - 1);
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(lo),
                   xs.end());
  const double v_lo = static_cast<double>(xs[lo]);
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(hi),
                   xs.end());
  const double v_hi = static_cast<double>(xs[hi]);
  const double frac = rank - static_cast<double>(lo);
  return v_lo + (v_hi - v_lo) * frac;
}

// Unsorted, duplicated and out-of-range percentiles, both ends, and the
// report's own p99.9.
const std::vector<double> kPropertyPs = {99.0, 50.0, -5.0, 250.0, 0.0,
                                         100.0, 99.9, 50.0, 10.0, 99.0,
                                         25.0,  75.0, 0.1,  90.0, 95.0};

template <typename T>
std::vector<T> seeded_sample(std::size_t n, bool tied, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::lognormal_distribution<double> lat(-1.5, 0.7);
  const T levels[] = {T(0.05), T(0.1), T(0.1875), T(0.3), T(2.5)};
  std::uniform_int_distribution<int> pick(0, 4);
  std::vector<T> xs(n);
  for (T& x : xs) x = tied ? levels[pick(rng)] : static_cast<T>(lat(rng));
  return xs;
}

template <typename T>
void expect_selection_matches_reference(std::size_t n, bool tied) {
  std::vector<T> xs = seeded_sample<T>(n, tied, 1000 + n);
  std::vector<T> before = xs;
  std::vector<double> want;
  for (double p : kPropertyPs) want.push_back(percentile_impl(xs, p));
  std::vector<double> got(kPropertyPs.size(), -1.0);
  select_percentiles(std::span<T>(xs), kPropertyPs, got);
  for (std::size_t i = 0; i < kPropertyPs.size(); ++i) {
    EXPECT_EQ(got[i], want[i])
        << "n=" << n << " tied=" << tied << " p=" << kPropertyPs[i];
  }
  // Selection reorders in place but never loses or invents a sample.
  std::sort(before.begin(), before.end());
  std::sort(xs.begin(), xs.end());
  EXPECT_EQ(xs, before) << "n=" << n << " tied=" << tied;
}

TEST(SelectPercentiles, MatchesByValueReferenceExactly) {
  for (std::size_t n : {0u, 1u, 2u, 3u, 1000u, 100003u}) {
    for (bool tied : {false, true}) {
      expect_selection_matches_reference<float>(n, tied);
      expect_selection_matches_reference<double>(n, tied);
    }
  }
}

TEST(SelectPercentiles, NeedsOneOutputPerPercentile) {
  std::vector<float> xs = {3.0f, 1.0f, 2.0f};
  const double ps[] = {50.0, 99.0};
  double out[1] = {};
  EXPECT_THROW(select_percentiles(std::span<float>(xs), ps, out),
               std::logic_error);
}

TEST(Stats, NormalCdf) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.96), 0.975, 0.001);
  EXPECT_NEAR(normal_cdf(-1.96), 0.025, 0.001);
}

TEST(Stats, WelchDistinguishesSeparatedSamples) {
  std::vector<double> a, b;
  for (int i = 0; i < 100; ++i) {
    a.push_back(10.0 + 0.1 * (i % 5));
    b.push_back(20.0 + 0.1 * (i % 5));
  }
  EXPECT_LT(welch_p_value(a, b), 1e-6);
  EXPECT_GT(welch_p_value(a, a), 0.99);
}

TEST(Stats, WelchDegenerateSamples) {
  EXPECT_DOUBLE_EQ(welch_p_value({1.0}, {2.0, 3.0}), 1.0);
}

TEST(Stats, CohensDLargeForSeparatedSamples) {
  std::vector<double> a, b;
  for (int i = 0; i < 50; ++i) {
    a.push_back(10.0 + 0.2 * (i % 3));
    b.push_back(12.0 + 0.2 * (i % 3));
  }
  EXPECT_GT(std::abs(cohens_d(a, b)), 5.0);
  EXPECT_DOUBLE_EQ(cohens_d(a, a), 0.0);
}

TEST(Stats, Ci95ShrinksWithSampleSize) {
  std::vector<double> small = {1.0, 2.0, 3.0};
  std::vector<double> large;
  for (int i = 0; i < 300; ++i) large.push_back(1.0 + (i % 3));
  EXPECT_GT(ci95_halfwidth(small), ci95_halfwidth(large));
}

TEST(Ewma, SeedsWithFirstObservation) {
  Ewma ewma(0.5);
  EXPECT_FALSE(ewma.seeded());
  ewma.observe(10.0);
  EXPECT_TRUE(ewma.seeded());
  EXPECT_DOUBLE_EQ(ewma.value(), 10.0);
}

TEST(Ewma, BlendsSubsequentObservations) {
  Ewma ewma(0.5);
  ewma.observe(10.0);
  ewma.observe(20.0);
  EXPECT_DOUBLE_EQ(ewma.value(), 15.0);
  ewma.observe(20.0);
  EXPECT_DOUBLE_EQ(ewma.value(), 17.5);
}

TEST(Ewma, ConvergesToConstantSignal) {
  Ewma ewma(0.3);
  for (int i = 0; i < 100; ++i) ewma.observe(42.0);
  EXPECT_NEAR(ewma.value(), 42.0, 1e-9);
}

// ---- Collector ----------------------------------------------------------

workload::Batch make_batch(bool strict, int count, double first_arrival,
                           double completed, double slo = 0.6) {
  workload::Batch b;
  b.model = &workload::ModelCatalog::instance().by_name("ResNet 50");
  b.strict = strict;
  b.count = count;
  b.first_arrival = first_arrival;
  b.last_arrival = first_arrival + 0.05;
  b.formed_at = first_arrival + 0.05;
  b.slo = strict ? slo : kNeverTime;
  b.exec_start = completed - 0.2;
  b.completed_at = completed;
  b.exec_time = 0.2;
  b.solo_min = 0.195;
  b.solo_on_slice = 0.195;
  return b;
}

TEST(Collector, ExpandsBatchIntoPerRequestLatencies) {
  Collector collector;
  collector.record(make_batch(true, 10, 1.0, 1.5));
  EXPECT_EQ(collector.strict_completed(), 10u);
  EXPECT_EQ(collector.strict_latencies().size(), 10u);
  // Earliest request: 0.5 s, latest: 0.45 s.
  EXPECT_NEAR(collector.strict_percentile(100.0), 0.5, 1e-6);
  EXPECT_NEAR(collector.strict_percentile(0.0), 0.45, 1e-6);
}

TEST(Collector, SloComplianceCountsDeadlines) {
  Collector collector;
  collector.record(make_batch(true, 10, 1.0, 1.5, /*slo=*/0.6));  // compliant
  collector.record(make_batch(true, 10, 2.0, 2.8, /*slo=*/0.6));  // violating
  EXPECT_NEAR(collector.slo_compliance_pct(), 50.0, 1e-9);
}

TEST(Collector, BeRequestsDontAffectCompliance) {
  Collector collector;
  collector.record(make_batch(false, 10, 1.0, 9.0));
  EXPECT_EQ(collector.be_completed(), 10u);
  EXPECT_DOUBLE_EQ(collector.slo_compliance_pct(), 100.0);
}

TEST(Collector, MeasureFromSkipsWarmupBatches) {
  Collector collector;
  collector.set_measure_from(5.0);
  collector.record(make_batch(true, 10, 1.0, 1.5));
  EXPECT_EQ(collector.strict_completed(), 0u);
  collector.record(make_batch(true, 10, 6.0, 6.5));
  EXPECT_EQ(collector.strict_completed(), 10u);
}

TEST(Collector, DroppedStrictRequestsAreViolations) {
  Collector collector;
  collector.record(make_batch(true, 10, 1.0, 1.5));
  collector.record_dropped(true, 10);
  EXPECT_NEAR(collector.slo_compliance_pct(), 50.0, 1e-9);
  EXPECT_EQ(collector.dropped(), 10u);
}

TEST(Collector, BreakdownComponentsAreAttributed) {
  Collector collector;
  workload::Batch b = make_batch(true, 4, 0.0, 1.0);
  b.cold_start = 0.1;
  b.exec_start = 0.5;
  b.exec_time = 0.5;
  b.solo_min = 0.2;
  b.solo_on_slice = 0.3;
  b.completed_at = 1.0;
  collector.record(b);
  const Breakdown bd = collector.mean_breakdown();
  EXPECT_NEAR(bd.cold, 0.1, 1e-9);
  EXPECT_NEAR(bd.queue, 0.4, 1e-9);       // 0.5 start - 0.0 arrival - 0.1 cold
  EXPECT_NEAR(bd.min_time, 0.2, 1e-9);
  EXPECT_NEAR(bd.deficiency, 0.1, 1e-9);  // 0.3 - 0.2
  EXPECT_NEAR(bd.interference, 0.2, 1e-9);  // 0.5 - 0.3
  EXPECT_NEAR(bd.total(), 1.0, 1e-9);
}

TEST(Collector, TailBreakdownSelectsWorstBatches) {
  Collector collector;
  for (int i = 0; i < 99; ++i) {
    collector.record(make_batch(true, 1, i, i + 0.3));
  }
  workload::Batch slow = make_batch(true, 1, 200.0, 205.0);
  slow.exec_start = 204.8;
  collector.record(slow);
  const Breakdown tail = collector.tail_breakdown(99.0);
  EXPECT_GT(tail.queue, 1.0);  // dominated by the slow batch
}

TEST(Collector, ColdStartCounter) {
  Collector collector;
  collector.record_cold_start();
  collector.record_cold_start();
  EXPECT_EQ(collector.cold_starts(), 2u);
}

}  // namespace
}  // namespace protean::metrics
