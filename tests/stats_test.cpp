// Tests for the statistics toolkit and metrics collector.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>

#include "metrics/collector.h"
#include "metrics/stats.h"
#include "workload/latency.h"
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

// ---- select_percentiles over latency ramps ---------------------------------

// What the per-request float store held for the same ramps.
std::vector<float> expand(const LatencyRamps& xs) {
  std::vector<float> out;
  for (const LatencyRamp& r : xs.ramps()) {
    for (int i = 0; i < r.count; ++i) {
      out.push_back(static_cast<float>(
          workload::request_latency(r.first, r.last, i, r.count)));
    }
  }
  return out;
}

void expect_ramps_match_floats(const LatencyRamps& xs, const char* what) {
  std::vector<float> floats = expand(xs);
  ASSERT_EQ(floats.size(), xs.size()) << what;
  std::vector<double> want(kPropertyPs.size()), got(kPropertyPs.size(), -1.0);
  select_percentiles(std::span<float>(floats), kPropertyPs, want);
  select_percentiles(xs, kPropertyPs, got);
  for (std::size_t i = 0; i < kPropertyPs.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << what << " p=" << kPropertyPs[i];
  }
}

// Ramps of `count` requests whose latencies start uniformly in
// [lo, lo + width) and fall (or, with rise > 0, rise) by up to `spread`.
LatencyRamps seeded_ramps(int ramps, int count, double lo, double width,
                          double spread, std::uint64_t seed,
                          double rise = 0.0) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  LatencyRamps out;
  for (int i = 0; i < ramps; ++i) {
    const double first = lo + width * u(rng);
    const double last = rise > 0.0 ? first + rise * u(rng)
                                   : first - spread * u(rng);
    out.add(first, last, count > 0 ? count : 1 + static_cast<int>(
                                                     u(rng) * -count));
  }
  return out;
}

TEST(SelectPercentiles, RampsMatchTheExpandedFloats) {
  expect_ramps_match_floats(LatencyRamps{}, "empty");
  {
    LatencyRamps one;
    one.add(0.3, 0.3, 1);
    expect_ramps_match_floats(one, "one request");
  }
  // Batches of a few requests, which select as expanded floats.
  expect_ramps_match_floats(seeded_ramps(20000, -8, 0.01, 2.0, 0.05, 6),
                            "short ramps");
  // Mixed sizes 1..256 over a log-wide range.
  expect_ramps_match_floats(seeded_ramps(3000, -256, 0.01, 2.0, 0.05, 1),
                            "mixed");
  // 10^6 requests in a band a few ramps wide: every rank needs the
  // bracket narrowed far below the band.
  expect_ramps_match_floats(seeded_ramps(100, 10000, 0.2349, 0.002, 0.001, 2),
                            "dense band");
  // Ramps that rise by rounding noise only.
  expect_ramps_match_floats(seeded_ramps(200, 500, 0.1, 0.01, 0.0, 3, 1e-9),
                            "rising by noise");
  // Many requests per float: each ramp spans a few float steps, so the
  // real-arithmetic estimates miss and exact counts must take over.
  expect_ramps_match_floats(seeded_ramps(100, 10000, 0.5, 1e-6, 1e-7, 4),
                            "many requests per float");
  // Ties beyond the expansion window at one latency, with outliers.
  LatencyRamps ties = seeded_ramps(50, 64, 1.0, 9.0, 0.5, 5);
  for (int i = 0; i < 30; ++i) ties.add(0.25, 0.25, 10000);
  ties.add(0.5, 0.1, 10000);
  expect_ramps_match_floats(ties, "ties");
}

// ---- the radix select on short ramps ---------------------------------------

// Short ramps (four requests per ramp or fewer) take the radix select; its
// percentiles must equal the float path's over the expanded floats, bit
// for bit.
void expect_radix_matches_floats(const LatencyRamps& xs, const char* what) {
  std::size_t ramps = 0;
  for (const LatencyRamp& r : xs.ramps()) ramps += r.count > 0 ? 1 : 0;
  ASSERT_LE(xs.size(), 4 * ramps) << what << " takes the ramp search";
  std::vector<float> floats = expand(xs);
  std::vector<double> want(kPropertyPs.size()), got(kPropertyPs.size(), -1.0);
  select_percentiles(std::span<float>(floats), kPropertyPs, want);
  select_percentiles(xs, kPropertyPs, got);
  for (std::size_t i = 0; i < kPropertyPs.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << " p=" << kPropertyPs[i] << ": " << got[i] << " vs "
        << want[i];
  }
}

// The positive float whose bits are `bits`.
float float_bits(std::uint32_t bits) { return std::bit_cast<float>(bits); }

TEST(SelectPercentiles, RadixSelectMatchesTheExpandedFloats) {
  {
    LatencyRamps one;
    one.add(0.3, 0.3, 1);
    expect_radix_matches_floats(one, "a single request");
  }
  {
    // Over 2^16 equal values, with an outlier on either side.
    LatencyRamps ties;
    for (int i = 0; i < 20000; ++i) ties.add(0.25, 0.25, 4);
    ties.add(0.001, 0.001, 1);
    ties.add(9.0, 8.0, 2);
    expect_radix_matches_floats(ties, "ties");
  }
  {
    // Values on both sides of 11-bit and 22-bit key-prefix edges: the
    // level-1 and level-2 bucket boundaries, as one-request ramps and as
    // short ramps that cross them.
    LatencyRamps edges;
    const std::uint32_t base = std::bit_cast<std::uint32_t>(0.3f);
    for (const int shift : {21, 10}) {
      for (std::uint32_t step = 0; step < 40; ++step) {
        const std::uint32_t edge = ((base >> shift) + step) << shift;
        for (const std::uint32_t bits : {edge - 1, edge, edge + 1}) {
          const double v = static_cast<double>(float_bits(bits));
          edges.add(v, v, 1);
        }
        edges.add(static_cast<double>(float_bits(edge + 2)),
                  static_cast<double>(float_bits(edge - 2)), 4);
        edges.add(static_cast<double>(float_bits(edge - 3)),
                  static_cast<double>(float_bits(edge + 3)), 3);
      }
    }
    expect_radix_matches_floats(edges, "prefix edges");
  }
  {
    // Descending, rising and flat ramps, and ramps of count 0, which hold
    // no request.
    LatencyRamps shapes = seeded_ramps(6000, -4, 0.01, 2.0, 0.05, 7);
    LatencyRamps rising = seeded_ramps(3000, 3, 0.2, 0.5, 0.0, 8, 0.03);
    for (const LatencyRamp& r : rising.ramps()) {
      shapes.add(r.first, r.last, r.count);
    }
    for (int i = 0; i < 500; ++i) {
      shapes.add(0.4 + 1e-4 * i, 0.4 + 1e-4 * i, 1 + i % 4);
      shapes.add(0.7, 0.1, 0);
    }
    expect_radix_matches_floats(shapes, "ramp shapes");
    LatencyRamps none;
    none.add(0.5, 0.5, 0);
    expect_radix_matches_floats(none, "count 0 only");
  }
  {
    // -0 and +0 together. The radix select keys -0 below +0, as the ramp
    // search does; the float path's nth_element holds them equal, so a
    // zero order statistic may differ in sign between the two. The
    // interpolation adds a non-negative difference to it, so every zero
    // percentile comes out +0 on both paths and the bits still agree.
    LatencyRamps zeros;
    zeros.add(-0.0, -1.0, 3);  // -0, -0.5, -1
    zeros.add(0.0, 1.0, 3);    // +0, 0.5, 1
    zeros.add(0.0, 0.0, 2);    // +0, +0
    zeros.add(-0.0, -0.5, 2);  // -0, -0.5
    expect_radix_matches_floats(zeros, "signed zeros");
  }
}

TEST(SelectPercentiles, RampSizeCountsRequests) {
  LatencyRamps xs;
  EXPECT_TRUE(xs.empty());
  xs.add(0.2, 0.1, 3);
  xs.add(0.5, 0.5, 1);
  EXPECT_EQ(xs.size(), 4u);
  EXPECT_EQ(xs.ramps().size(), 2u);
  EXPECT_FALSE(xs.empty());
  EXPECT_EQ(percentile(xs, 100.0), static_cast<double>(0.5f));
  EXPECT_EQ(percentile(xs, 0.0), static_cast<double>(0.1f));
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
  // p = 0 keeps every strict batch in the tail: the mean over all of them.
  const Breakdown bd = collector.tail_breakdown(0.0);
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
