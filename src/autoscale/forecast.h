// Short-horizon request-rate forecaster: EWMA level plus a multiplicative
// diurnal seasonal term (Holt–Winters flavoured, deterministic, no RNG).
//
// The level tracks the smoothed arrival rate; the season is a ring of
// per-phase multipliers (rate / level) over one diurnal period, so a
// compressed "day" (trace::kDiurnalPeriod) teaches the forecaster where the
// peaks and troughs sit after a single cycle. The forecast for the *next*
// tick is level × season[next phase].
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace protean::autoscale {

class RateForecaster {
 public:
  /// `tick` is the observation cadence; the seasonal ring has
  /// ceil(season_period / tick) buckets (none when season_period <= 0).
  RateForecaster(double ewma_alpha, Duration season_period, Duration tick);

  /// Feeds one observed rate (requests/s over the last tick) at time `now`.
  void observe(SimTime now, double rate);

  /// Forecast rate one tick ahead of `now`. Before any observation this
  /// returns 0 (callers treat an untrained forecaster as "no signal").
  double forecast(SimTime now) const;

  double level() const noexcept { return level_; }
  std::uint64_t observations() const noexcept { return observations_; }
  /// Seasonal multiplier for the phase containing `t` (1.0 when untrained).
  double seasonal_factor(SimTime t) const;

 private:
  std::size_t bucket_of(SimTime t) const;

  double alpha_;
  Duration season_period_;
  Duration tick_;
  double level_ = 0.0;
  std::uint64_t observations_ = 0;
  std::vector<double> season_;        ///< multiplier per phase bucket
  std::vector<bool> season_seen_;
};

}  // namespace protean::autoscale
