#include "spot/price_model.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"

namespace protean::spot {

/// Peak-to-mean swing of the diurnal component (0.25 → ±25%), and its period.
constexpr double kDiurnalAmplitude = 0.25;
constexpr Duration kDiurnalPeriod = 3600.0;
/// Std-dev of the AR(1) noise, as a fraction of the mean price.
constexpr double kNoiseSigma = 0.10;
/// Per sampled second: chance of a short demand spike; its size and length.
constexpr double kSpikeProbability = 0.002;
constexpr double kSpikeMultiplier = 2.5;
constexpr Duration kSpikeDuration = 60.0;

PriceTrace::PriceTrace(const PriceModelConfig& config) : config_(config) {
  PROTEAN_CHECK_MSG(config_.horizon >= 1.0, "horizon too short");
  PROTEAN_CHECK_MSG(config_.mean_spot_hourly > 0.0, "invalid mean price");
  PROTEAN_CHECK_MSG(config_.mean_spot_hourly < kOnDemandHourly,
                    "spot must be cheaper than on-demand");

  Rng rng(config_.seed);
  const auto n = static_cast<std::size_t>(std::ceil(config_.horizon));
  prices_.reserve(n);

  double noise = 0.0;
  double spike_until = -1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    const double diurnal =
        1.0 + kDiurnalAmplitude * std::sin(2.0 * M_PI * t / kDiurnalPeriod);
    noise = 0.98 * noise + 0.02 * rng.normal(0.0, kNoiseSigma * 50.0);
    double price = config_.mean_spot_hourly * diurnal *
                   std::max(0.3, 1.0 + noise);
    if (t < spike_until) {
      price *= kSpikeMultiplier;
    } else if (rng.bernoulli(kSpikeProbability)) {
      spike_until = t + kSpikeDuration;
      price *= kSpikeMultiplier;
    }
    // The market never charges more than on-demand (nobody would pay it).
    prices_.push_back(std::min(price, kOnDemandHourly));
  }
  mean_ = std::accumulate(prices_.begin(), prices_.end(), 0.0) /
          static_cast<double>(prices_.size());
  peak_ = *std::max_element(prices_.begin(), prices_.end());
}

double PriceTrace::price_at(SimTime t) const noexcept {
  if (t < 0.0) return prices_.front();
  auto idx = static_cast<std::size_t>(t);
  if (idx >= prices_.size()) idx = prices_.size() - 1;
  return prices_[idx];
}

double PriceTrace::fraction_above(double bid) const noexcept {
  if (prices_.empty()) return 0.0;
  std::size_t above = 0;
  for (double p : prices_) {
    if (p > bid) ++above;
  }
  return static_cast<double>(above) / static_cast<double>(prices_.size());
}

double PriceTrace::average_price(SimTime t0, SimTime t1) const noexcept {
  if (t1 <= t0) return price_at(t0);
  auto lo = static_cast<std::size_t>(std::max(0.0, t0));
  auto hi = static_cast<std::size_t>(std::max(0.0, t1));
  lo = std::min(lo, prices_.size() - 1);
  hi = std::min(hi, prices_.size() - 1);
  double sum = 0.0;
  for (std::size_t i = lo; i <= hi; ++i) sum += prices_[i];
  return sum / static_cast<double>(hi - lo + 1);
}

double PriceTrace::bid_for_exposure(double p_rev) const noexcept {
  // The (1 - p_rev) quantile of the price distribution.
  std::vector<double> sorted = prices_;
  std::sort(sorted.begin(), sorted.end());
  const double q = std::clamp(1.0 - p_rev, 0.0, 1.0);
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

}  // namespace protean::spot
