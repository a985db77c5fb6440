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

/// One percentile of a sample the caller hands over by value: a thin
/// wrapper over select_percentiles. Move the vector in to avoid a copy.
double percentile(std::vector<float> xs, double p) noexcept;
double percentile(std::vector<double> xs, double p) noexcept;

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
