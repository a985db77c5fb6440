// Request-rate traces.
//
// The paper replays Wikipedia (diurnal, peak:mean 316:303) and Twitter
// (erratic, peak:mean 4561:2969) traces scaled to ~5000 rps. We synthesize
// rate functions with the same statistics. A trace is materialized as a
// per-second rate table at construction (deterministic for a given seed), so
// rate_at() is pure and experiments replay exactly.
//
// Simulated horizons are much shorter than the paper's (hours), so the
// diurnal period is compressed to fit several cycles into the horizon; the
// queueing regimes — what the schedulers actually react to — depend on the
// rate distribution, not wall-clock scale.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace protean::trace {

enum class TraceKind {
  kConstant,  ///< flat rate (Section 2.2 motivation experiments)
  kWiki,      ///< smooth diurnal-like variation, small peak-to-mean
  kTwitter,   ///< erratic, spiky, large peak-to-mean
  kTable,     ///< explicit per-second table (e.g. loaded from CSV)
};

const char* to_string(TraceKind kind) noexcept;

/// Compressed "day" length of the kWiki trace, seconds.
inline constexpr Duration kDiurnalPeriod = 60.0;

struct TraceConfig {
  TraceKind kind = TraceKind::kWiki;
  /// Target mean rate (requests/s). For kTwitter the paper scales to a
  /// target *peak* instead; set scale_to_peak and this becomes the peak.
  double target_rps = 5000.0;
  bool scale_to_peak = false;
  Duration horizon = 120.0;  ///< trace length, seconds
  std::uint64_t seed = 1;
  /// kTable only: the per-second rate table (see trace/io.h for CSV
  /// loading). The horizon becomes the table length.
  std::vector<double> table;
};

class RateTrace {
 public:
  explicit RateTrace(const TraceConfig& config);

  /// Instantaneous arrival rate (requests/s) at time t; step function with
  /// 1 s resolution, clamped to the horizon.
  double rate_at(SimTime t) const noexcept;

  double mean_rate() const noexcept { return mean_; }
  double peak_rate() const noexcept { return peak_; }
  Duration horizon() const noexcept { return config_.horizon; }
  const TraceConfig& config() const noexcept { return config_; }
  const std::vector<double>& table() const noexcept { return rates_; }

 private:
  void build(Rng& rng);

  TraceConfig config_;
  std::vector<double> rates_;  // one entry per second
  double mean_ = 0.0;
  double peak_ = 0.0;
};

}  // namespace protean::trace
