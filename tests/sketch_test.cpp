// Tests for the DDSketch-style quantile sketch and the sketch-backed
// Collector latency store: relative-error bounds against exact order
// statistics, merge semantics, and end-to-end agreement with the
// vector-backed store across every scheduling scheme.
#include "metrics/sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "harness/experiment.h"
#include "sched/registry.h"

namespace protean::metrics {
namespace {

// Deterministic xorshift stream; tests must not depend on libc rand().
class Prng {
 public:
  explicit Prng(std::uint64_t seed) : state_(seed) {}
  double uniform01() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return static_cast<double>(state_ >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

// True q-quantile bracket: [floor, ceil] order statistics around rank
// q·(n−1). A sketch value is correct if it lies within `alpha` relative
// error of that bracket.
std::pair<double, double> exact_bracket(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const double rank = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  return {xs[lo], xs[hi]};
}

TEST(QuantileSketch, RelativeErrorBoundOnSkewedStream) {
  const double alpha = 0.02;
  QuantileSketch sketch(alpha);
  Prng prng(0xC0FFEE);
  std::vector<double> xs;
  xs.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform over ~4 decades — the latency-like regime the sketch
    // is designed for.
    const double v = std::pow(10.0, -3.0 + 4.0 * prng.uniform01());
    xs.push_back(v);
    sketch.add(v);
  }
  for (double q : {0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999}) {
    const auto [lo, hi] = exact_bracket(xs, q);
    const double got = sketch.quantile(q);
    EXPECT_GE(got, lo * (1.0 - alpha) - 1e-12) << "q=" << q;
    EXPECT_LE(got, hi * (1.0 + alpha) + 1e-12) << "q=" << q;
  }
}

TEST(QuantileSketch, ExactExtremaAndMoments) {
  QuantileSketch sketch(0.01);
  for (double v : {3.0, 1.0, 2.0, 5.0, 4.0}) sketch.add(v);
  EXPECT_EQ(sketch.count(), 5u);
  EXPECT_DOUBLE_EQ(sketch.min(), 1.0);
  EXPECT_DOUBLE_EQ(sketch.max(), 5.0);
  EXPECT_DOUBLE_EQ(sketch.sum(), 15.0);
  EXPECT_DOUBLE_EQ(sketch.mean(), 3.0);
  // Quantiles are clamped to the exact observed range.
  EXPECT_DOUBLE_EQ(sketch.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(sketch.quantile(1.0), 5.0);
}

TEST(QuantileSketch, SingleValueIsReturnedExactly) {
  QuantileSketch sketch(0.05);
  sketch.add(0.125);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(sketch.quantile(q), 0.125);
  }
}

TEST(QuantileSketch, ZeroBucketAbsorbsTinyAndNegativeValues) {
  QuantileSketch sketch(0.01);
  sketch.add(0.0);
  sketch.add(1e-9);   // below kMinValue
  sketch.add(-4.0);   // clamped to 0
  EXPECT_EQ(sketch.count(), 3u);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(sketch.min(), 0.0);
  // Extrema stay exact over the (clamped) stream even for sub-threshold
  // values; only the bucketing collapses them to the zero bucket.
  EXPECT_DOUBLE_EQ(sketch.max(), 1e-9);
}

TEST(QuantileSketch, EmptySketchReadsAsZero) {
  const QuantileSketch sketch(0.01);
  EXPECT_TRUE(sketch.empty());
  EXPECT_DOUBLE_EQ(sketch.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(sketch.mean(), 0.0);
  EXPECT_DOUBLE_EQ(sketch.min(), 0.0);
}

TEST(QuantileSketch, InsertionOrderDoesNotMatter) {
  QuantileSketch forward(0.01);
  QuantileSketch backward(0.01);
  std::vector<double> xs;
  Prng prng(99);
  for (int i = 0; i < 2000; ++i) xs.push_back(0.01 + prng.uniform01());
  for (double v : xs) forward.add(v);
  for (auto it = xs.rbegin(); it != xs.rend(); ++it) backward.add(*it);
  for (double q : {0.25, 0.5, 0.75, 0.99}) {
    EXPECT_DOUBLE_EQ(forward.quantile(q), backward.quantile(q));
  }
}

TEST(QuantileSketch, MemoryStaysBoundedAsStreamGrows) {
  QuantileSketch sketch(0.01);
  Prng prng(1234);
  for (int i = 0; i < 100000; ++i) {
    sketch.add(0.0001 + 10.0 * prng.uniform01());
  }
  // O(log(max/min)/alpha) buckets, not O(n).
  EXPECT_LT(sketch.bucket_count(), 2500u);
  EXPECT_LT(sketch.approx_bytes(), 100000u * sizeof(float));
}

TEST(QuantileSketch, ClearResetsEverything) {
  QuantileSketch sketch(0.01);
  sketch.add(1.0);
  sketch.add(2.0);
  sketch.clear();
  EXPECT_TRUE(sketch.empty());
  EXPECT_EQ(sketch.bucket_count(), 0u);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.5), 0.0);
  sketch.add(3.0);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.5), 3.0);
}

TEST(QuantileSketch, RejectsInvalidAlpha) {
  EXPECT_THROW(QuantileSketch(0.0), std::logic_error);
  EXPECT_THROW(QuantileSketch(-0.1), std::logic_error);
  EXPECT_THROW(QuantileSketch(0.6), std::logic_error);
}

// ---- sketch-backed Collector vs vector-backed Collector ------------------

// Every scheme, same config twice: once with the exact per-request vector
// store and once with the sketch store. Reported percentiles must agree
// within the sketch's relative-error bound (plus a small absolute slack
// for rank interpolation between adjacent order statistics), and the
// SLO-compliance accounting — which never reads the latency store — must
// be bit-identical.
TEST(SketchCollector, MatchesExactStoreAcrossAllSchemes) {
  const double alpha = 0.01;
  for (sched::Scheme scheme : sched::all_schemes()) {
    auto base = harness::primary_config("ResNet 50", /*horizon=*/40.0)
                    .with_scheme(scheme)
                    .with_rps(800.0)
                    .with_seed(11);
    const harness::Report exact = harness::run_experiment(base);
    const harness::Report sketched =
        harness::run_experiment(base.with_sketch_collector(alpha));

    const char* name = sched::scheme_name(scheme);
    EXPECT_DOUBLE_EQ(sketched.slo_compliance_pct, exact.slo_compliance_pct)
        << name;
    EXPECT_EQ(sketched.strict_completed, exact.strict_completed) << name;
    EXPECT_EQ(sketched.be_completed, exact.be_completed) << name;
    EXPECT_EQ(sketched.dropped, exact.dropped) << name;

    const auto within = [&](double got_ms, double want_ms, const char* what) {
      const double slack_ms = 2.5;  // adjacent-rank interpolation gap
      EXPECT_NEAR(got_ms, want_ms, alpha * want_ms + slack_ms)
          << name << " " << what;
    };
    within(sketched.strict_p50_ms, exact.strict_p50_ms, "strict p50");
    within(sketched.strict_p99_ms, exact.strict_p99_ms, "strict p99");
    within(sketched.be_p50_ms, exact.be_p50_ms, "be p50");
    within(sketched.be_p99_ms, exact.be_p99_ms, "be p99");
    within(sketched.strict_mean_ms, exact.strict_mean_ms, "strict mean");
  }
}

// The sketch store hands out no latency ramps by design, even with batches
// recorded.
TEST(SketchCollector, SketchModeKeepsNoSamples) {
  Collector collector;
  collector.use_sketch_store(0.01);
  EXPECT_TRUE(collector.sketch_store());
  workload::Batch batch;
  batch.count = 3;
  batch.first_arrival = 0.0;
  batch.last_arrival = 0.1;
  batch.completed_at = 1.0;
  for (const bool strict : {true, false}) {
    batch.id = strict ? 1 : 2;
    batch.strict = strict;
    collector.record(batch);
  }
  EXPECT_EQ(collector.strict_completed(), 3u);
  EXPECT_EQ(collector.be_completed(), 3u);
  EXPECT_TRUE(collector.strict_latencies().empty());
  EXPECT_TRUE(collector.be_latencies().empty());
}

TEST(SketchCollector, RejectsLateActivation) {
  Collector collector;
  workload::Batch batch;
  batch.count = 1;
  batch.first_arrival = 0.0;
  batch.last_arrival = 0.0;
  batch.completed_at = 1.0;
  batch.strict = false;
  collector.record(batch);
  EXPECT_THROW(collector.use_sketch_store(0.01), std::logic_error);
}

}  // namespace
}  // namespace protean::metrics
