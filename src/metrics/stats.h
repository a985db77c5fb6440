// Small statistics toolkit: percentiles, moments, Welch's t-test, Cohen's d,
// confidence intervals. Used by the metrics collector and by the
// statistical-significance bench (Section 7 of the paper).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace protean::metrics {

/// Arithmetic mean; 0 for an empty sample.
double mean(const std::vector<double>& xs) noexcept;

/// Unbiased sample standard deviation; 0 for n < 2.
double stddev(const std::vector<double>& xs) noexcept;

/// Writes the p-th percentile of `xs` for every p in `ps` to the matching
/// slot of `out` (same size as `ps`): linear interpolation between the
/// closest ranks, p clamped to [0,100], 0 for an empty sample. `ps` may be
/// unsorted and hold duplicates. Selects in place: all the ranks the `ps`
/// need are placed by one recursive nth_element pass, O(n log k) for k
/// distinct ranks. `xs` keeps its multiset, but its order is left
/// unspecified.
void select_percentiles(std::span<float> xs, std::span<const double> ps,
                        std::span<double> out);
void select_percentiles(std::span<double> xs, std::span<const double> ps,
                        std::span<double> out);

/// The request latencies of one recorded batch (or flow): request i of
/// `count` took float(workload::request_latency(first, last, i, count))
/// seconds. The ramp is monotone under IEEE rounding: non-increasing when
/// last <= first, non-decreasing otherwise.
struct LatencyRamp {
  double first = 0.0;  ///< the earliest (longest-waiting) request's latency
  double last = 0.0;   ///< the latest request's latency
  int count = 0;
};

/// A multiset of request latencies kept as one ramp per batch: size() is
/// the number of requests, not of ramps.
class LatencyRamps {
 public:
  void reserve(std::size_t ramps) { ramps_.reserve(ramps); }
  void add(double first, double last, int count) {
    ramps_.push_back({first, last, count});
    requests_ += static_cast<std::size_t>(count);
  }
  std::size_t size() const noexcept { return requests_; }
  bool empty() const noexcept { return requests_ == 0; }
  std::span<const LatencyRamp> ramps() const noexcept { return ramps_; }

 private:
  std::vector<LatencyRamp> ramps_;
  std::size_t requests_ = 0;
};

/// Read-only access to latency ramps kept elsewhere, so percentiles can be
/// selected from them in place: slot i, for i < slots(), holds ramp(i). A
/// ramp of count 0 holds no request, which is how a source leaves a slot
/// out of its multiset.
class RampSource {
 public:
  virtual ~RampSource() = default;
  virtual std::size_t slots() const = 0;
  virtual LatencyRamp ramp(std::size_t slot) const = 0;
  /// ramp(begin + i) into out[i], for each i < out.size(): one call for a
  /// run of slots. A source that reads runs faster than slot by slot
  /// overrides it.
  virtual void read(std::size_t begin, std::span<LatencyRamp> out) const {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = ramp(begin + i);
  }
  /// The requests, and the ramps of count > 0, over all slots.
  virtual std::size_t requests() const = 0;
  virtual std::size_t ramps() const = 0;
};

/// The same percentiles as the float overload over the expanded multiset,
/// bit for bit, without expanding it. Each rank is bracketed in the floats'
/// order-preserving bit keys and the bracket narrowed on exact counts (a
/// monotone ramp counts the values below a key with one guessed binary
/// search) until at most 2^16 values remain; only those are expanded.
/// Short ramps (four requests per ramp or fewer on average) take an exact
/// radix select on the same keys instead: three passes over the ramps
/// that histogram 11, 11 and 10 key bits of the values whose prefix a rank
/// has reached. A LatencyRamps is selected through the same path as a
/// RampSource.
///
/// Memory: the ramps are read in place. The search keeps a 16-byte header
/// per ramp, a window of at most 2^16 floats, and end-key buckets that span
/// only the keys present (40 KiB for latencies from 1 ms to 1000 s). The
/// radix select keeps nothing per ramp, whatever the ramp count: one level's
/// 16 KiB histograms at a time, one per distinct prefix (at most two per
/// requested percentile) and one to discard into, and 8 KiB prefix tables
/// (56 KiB for two percentiles).
void select_percentiles(const RampSource& xs, std::span<const double> ps,
                        std::span<double> out);
void select_percentiles(const LatencyRamps& xs, std::span<const double> ps,
                        std::span<double> out);

/// One percentile of a sample the caller hands over by value: a thin
/// wrapper over select_percentiles. Move the vector in to avoid a copy.
double percentile(std::vector<float> xs, double p) noexcept;
double percentile(std::vector<double> xs, double p) noexcept;
double percentile(const LatencyRamps& xs, double p);

/// Half-width of the 95% confidence interval of the mean (normal approx).
double ci95_halfwidth(const std::vector<double>& xs) noexcept;

/// Two-sided p-value of Welch's unequal-variance t-test (normal
/// approximation of the t CDF, adequate for the df > 30 regime the
/// experiments produce). Returns 1.0 if either sample has n < 2.
double welch_p_value(const std::vector<double>& a,
                     const std::vector<double>& b) noexcept;

/// Cohen's d effect size with pooled standard deviation. 0 if degenerate.
double cohens_d(const std::vector<double>& a,
                const std::vector<double>& b) noexcept;

/// Standard normal CDF.
double normal_cdf(double z) noexcept;

/// Exponentially weighted moving average (Atoll-style predictor used by the
/// GPU Reconfigurator, Algorithm 2 step (a)).
class Ewma {
 public:
  explicit Ewma(double alpha = 0.3) noexcept : alpha_(alpha) {}

  void observe(double x) noexcept {
    value_ = seeded_ ? alpha_ * x + (1.0 - alpha_) * value_ : x;
    seeded_ = true;
  }
  double value() const noexcept { return value_; }
  bool seeded() const noexcept { return seeded_; }
  double alpha() const noexcept { return alpha_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool seeded_ = false;
};

}  // namespace protean::metrics
