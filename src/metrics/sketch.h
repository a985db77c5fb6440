// Streaming quantile sketch with bounded relative error (DDSketch-style).
//
// Values are mapped to logarithmically spaced buckets: bucket k covers
// (gamma^(k-1), gamma^k] with gamma = (1 + alpha) / (1 - alpha), and a
// bucket's representative value 2·gamma^k / (gamma + 1) is within `alpha`
// relative error of every value in the bucket. Quantile queries therefore
// return a value v' with |v' − v_q| ≤ alpha · v_q for the true q-quantile
// v_q, while memory stays O(log(max/min) / alpha) — independent of the
// number of observations. Sub-`kMinValue` observations (including zero)
// land in a dedicated zero bucket and are reported as 0.
//
// The sketch is deterministic: buckets live in an ordered map, queries
// iterate in key order, and no randomness is consumed. It backs
// the opt-in sketch latency store of metrics::Collector and the rolling
// per-window quantiles of src/telemetry.
#pragma once

#include <cstdint>
#include <map>

namespace protean::metrics {

class QuantileSketch {
 public:
  /// Values below this threshold are counted in the zero bucket.
  static constexpr double kMinValue = 1e-6;

  /// `alpha` is the relative-error bound, in (0, 0.5].
  explicit QuantileSketch(double alpha = 0.01);

  double alpha() const noexcept { return alpha_; }

  /// Records one observation (negative values are clamped to 0).
  void add(double value);

  std::uint64_t count() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  /// Exact extrema of the observed stream (0 when empty).
  double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return count_ == 0 ? 0.0 : max_; }

  /// The q-quantile (q in [0, 1]) within `alpha` relative error, clamped
  /// to the exact observed [min, max]. 0 for an empty sketch.
  double quantile(double q) const;

  /// Convenience: percentile in [0, 100], mirroring metrics::percentile.
  double percentile(double p) const { return quantile(p / 100.0); }

  std::size_t bucket_count() const noexcept { return buckets_.size(); }

  /// Rough heap footprint of the bucket store, for memory comparisons
  /// against the O(requests) float-vector latency store.
  std::size_t approx_bytes() const noexcept;

  void clear();

 private:
  int key_for(double value) const;
  double value_for(int key) const;

  double alpha_;
  double gamma_;
  double log_gamma_;
  std::map<int, std::uint64_t> buckets_;
  // Hot-path cache: the bucket hit by the previous add(), as a slightly
  // shrunken value range so boundary values (where the log-based mapping
  // could disagree with the pow-based bounds in the last ulp) always fall
  // through to key_for(). Hits skip both the log and the tree walk.
  double last_lo_ = 0.0;   // exclusive
  double last_hi_ = -1.0;  // inclusive; hi < lo marks the cache invalid
  std::uint64_t* last_count_ = nullptr;
  std::uint64_t zero_count_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace protean::metrics
