// Rate-trace file I/O.
//
// A rate trace can be replayed from a two-column CSV
// ("second,rps", header optional), so real production traces (Wikipedia
// pageview dumps, Twitter firehose aggregations) can be fed to the
// simulator once aggregated to per-second request counts.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace protean::trace {

/// Latest second a rate CSV may name (about 116 days): gaps are filled one
/// entry per second, so an unbounded second could demand any amount of
/// memory.
inline constexpr long kMaxRateCsvSecond = 10'000'000;

/// Parses a "second,rps" CSV stream (a first line without digits is a
/// header; blank lines and '#' comments skipped). Each field must be one
/// whole token: an integer second, non-negative, strictly increasing and
/// at most kMaxRateCsvSecond, and a finite, non-negative rate. Gaps hold
/// the previous rate. Throws std::invalid_argument on malformed input,
/// including a table with no positive rate.
std::vector<double> parse_rate_csv(std::istream& in);

/// Reads a rate table from a CSV file. Throws on I/O or parse errors.
std::vector<double> load_rate_csv(const std::string& path);

/// A RateTrace backed by an explicit per-second table (e.g. loaded from
/// CSV), optionally rescaled to a target mean or peak.
class TableTrace {
 public:
  struct Config {
    /// Rescale so the mean (or peak, if scale_to_peak) hits this value;
    /// <= 0 keeps the table as-is.
    double target_rps = 0.0;
    bool scale_to_peak = false;
  };

  explicit TableTrace(std::vector<double> rates);
  TableTrace(std::vector<double> rates, const Config& config);

  double rate_at(SimTime t) const noexcept;
  double mean_rate() const noexcept { return mean_; }
  double peak_rate() const noexcept { return peak_; }
  Duration horizon() const noexcept {
    return static_cast<Duration>(rates_.size());
  }
  const std::vector<double>& table() const noexcept { return rates_; }

 private:
  std::vector<double> rates_;
  double mean_ = 0.0;
  double peak_ = 0.0;
};

}  // namespace protean::trace
