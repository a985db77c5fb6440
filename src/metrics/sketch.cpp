#include "metrics/sketch.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace protean::metrics {

QuantileSketch::QuantileSketch(double alpha) : alpha_(alpha) {
  PROTEAN_CHECK_MSG(alpha > 0.0 && alpha <= 0.5,
                    "sketch alpha must be in (0, 0.5]");
  gamma_ = (1.0 + alpha_) / (1.0 - alpha_);
  log_gamma_ = std::log(gamma_);
}

int QuantileSketch::key_for(double value) const {
  // ceil(log_gamma(v)): bucket k covers (gamma^(k-1), gamma^k].
  return static_cast<int>(std::ceil(std::log(value) / log_gamma_ - 1e-12));
}

double QuantileSketch::value_for(int key) const {
  // Midpoint (in relative terms) of (gamma^(k-1), gamma^k].
  return 2.0 * std::pow(gamma_, key) / (gamma_ + 1.0);
}

void QuantileSketch::add(double value) {
  value = std::max(value, 0.0);
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  if (value < kMinValue) {
    ++zero_count_;
    return;
  }
  // Consecutive observations cluster (latencies of one workload phase), so
  // the same bucket repeats; a one-entry range cache skips the log and the
  // tree walk. Map inserts never invalidate pointers to other mapped
  // values, and the range is shrunk by 1e-9 relative on both ends so a
  // cache hit always agrees with key_for().
  if (value > last_lo_ && value <= last_hi_) {
    ++*last_count_;
    return;
  }
  const int key = key_for(value);
  const double hi = std::pow(gamma_, key);
  last_lo_ = (hi / gamma_) * (1.0 + 1e-9);
  last_hi_ = hi * (1.0 - 1e-9);
  last_count_ = &buckets_[key];
  ++*last_count_;
}

double QuantileSketch::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // The observation with (0-based) rank floor(q·(n−1)) — the same closest
  // rank metrics::percentile interpolates around.
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count_ - 1));
  if (rank < zero_count_) return std::clamp(0.0, min_, max_);
  std::uint64_t seen = zero_count_;
  for (const auto& [key, n] : buckets_) {
    seen += n;
    if (rank < seen) return std::clamp(value_for(key), min_, max_);
  }
  return max_;
}

std::size_t QuantileSketch::approx_bytes() const noexcept {
  // Red-black tree node: key/value plus 3 pointers + color, rounded up.
  constexpr std::size_t kNodeBytes =
      sizeof(int) + sizeof(std::uint64_t) + 4 * sizeof(void*);
  return sizeof(*this) + buckets_.size() * kNodeBytes;
}

void QuantileSketch::clear() {
  buckets_.clear();
  last_lo_ = 0.0;
  last_hi_ = -1.0;
  last_count_ = nullptr;
  zero_count_ = 0;
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

}  // namespace protean::metrics
