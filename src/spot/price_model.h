// Dynamic spot pricing (extension).
//
// The paper derives its fixed revocation probabilities from Narayanan et
// al.'s analysis of dynamic public-cloud pricing. This module models that
// underlying mechanism directly: a synthetic spot price trace (diurnal
// swing + auto-correlated noise + demand spikes), with revocations issued
// when the market price rises above the operator's bid and acquisitions
// succeeding only while it is below. `bench_ext_price_trace` compares the
// fixed-P_rev emulation against this richer model.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace protean::spot {

/// Table 3's AWS row: $/hour of an 8×A100 instance. The market bills these
/// prices, and the price model caps its trace at on-demand.
inline constexpr double kOnDemandHourly = 32.7726;
inline constexpr double kSpotHourly = 9.8318;

struct PriceModelConfig {
  /// Long-run average spot price (the ~70% discount of Table 3).
  double mean_spot_hourly = kSpotHourly;
  Duration horizon = 7200.0;
  std::uint64_t seed = 97;
};

/// A deterministic (per seed) spot price trace with 1 s resolution.
class PriceTrace {
 public:
  explicit PriceTrace(const PriceModelConfig& config);

  /// $/hour at time t (clamped to the horizon).
  double price_at(SimTime t) const noexcept;

  double mean_price() const noexcept { return mean_; }
  double peak_price() const noexcept { return peak_; }
  const std::vector<double>& table() const noexcept { return prices_; }
  const PriceModelConfig& config() const noexcept { return config_; }

  /// Fraction of the horizon during which the price exceeds `bid` — the
  /// empirical revocation exposure of that bid (what the paper's P_rev
  /// summarizes).
  double fraction_above(double bid) const noexcept;

  /// The lowest bid whose revocation exposure is at most `p_rev` — maps a
  /// paper-style availability tier back onto a price threshold.
  double bid_for_exposure(double p_rev) const noexcept;

  /// Mean $/hour over [t0, t1] (1 s resolution), for lease cost accrual.
  double average_price(SimTime t0, SimTime t1) const noexcept;

 private:
  PriceModelConfig config_;
  std::vector<double> prices_;
  double mean_ = 0.0;
  double peak_ = 0.0;
};

}  // namespace protean::spot
