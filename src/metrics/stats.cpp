#include "metrics/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "common/check.h"
#include "workload/latency.h"

namespace protean::metrics {

double mean(const std::vector<double>& xs) noexcept {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double stddev(const std::vector<double>& xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double ss = 0.0;
  for (double x : xs) ss += (x - m) * (x - m);
  return std::sqrt(ss / static_cast<double>(xs.size() - 1));
}

namespace {

/// Interpolation point of one percentile: the value is
/// xs[lo] + (xs[hi] - xs[lo]) * (rank - lo) over the sorted sample.
struct RankPoint {
  double rank;
  std::size_t lo;
  std::size_t hi;
};

RankPoint rank_point(double p, std::size_t n) noexcept {
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(rank);
  return {rank, lo, std::min(lo + 1, n - 1)};
}

/// Moves the order statistic of every rank in `ranks` (sorted, distinct,
/// all in [first, last)) to its sorted position in xs[first, last).
/// Each nth_element splits the range and the ranks, so the total work is
/// O(n log k); a rank at either end of its range needs only a min/max scan.
template <typename T>
void place_ranks(T* xs, std::size_t first, std::size_t last,
                 std::span<const std::size_t> ranks) {
  while (!ranks.empty()) {
    if (ranks.front() == first) {
      std::iter_swap(xs + first, std::min_element(xs + first, xs + last));
      ++first;
      ranks = ranks.subspan(1);
    } else if (ranks.back() == last - 1) {
      std::iter_swap(xs + last - 1, std::max_element(xs + first, xs + last));
      --last;
      ranks = ranks.first(ranks.size() - 1);
    } else {
      // Split at the rank nearest the middle of the range: tail-heavy rank
      // sets (p90..p99.9) then shrink the ranges faster than a split at the
      // median rank would.
      const std::size_t center = first + (last - first) / 2;
      auto it = std::lower_bound(ranks.begin(), ranks.end(), center);
      if (it == ranks.end() ||
          (it != ranks.begin() && center - *(it - 1) < *it - center)) {
        --it;
      }
      const auto mid = static_cast<std::size_t>(it - ranks.begin());
      const std::size_t r = *it;
      std::nth_element(xs + first, xs + r, xs + last);
      place_ranks(xs, first, r, ranks.first(mid));
      first = r + 1;
      ranks = ranks.subspan(mid + 1);
    }
  }
}

/// Shared frame of every select_percentiles overload. `order_stats(ranks)`
/// returns the order statistic at each of the sorted, distinct ranks; the
/// frame gathers the ranks the ps need and interpolates between them.
template <typename OrderStats>
void select_frame(std::size_t n, std::span<const double> ps,
                  std::span<double> out, OrderStats order_stats) {
  PROTEAN_CHECK_MSG(out.size() == ps.size(),
                    "select_percentiles needs one output per percentile");
  if (n == 0) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  std::vector<std::size_t> ranks;
  ranks.reserve(2 * ps.size());
  for (double p : ps) {
    const RankPoint at = rank_point(p, n);
    ranks.push_back(at.lo);
    ranks.push_back(at.hi);
  }
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  const std::vector<double> stats = order_stats(std::span(ranks));
  const auto stat = [&](std::size_t rank) {
    return stats[static_cast<std::size_t>(
        std::lower_bound(ranks.begin(), ranks.end(), rank) - ranks.begin())];
  };
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const RankPoint at = rank_point(ps[i], n);
    const double v_lo = stat(at.lo);
    const double v_hi = stat(at.hi);
    const double frac = at.rank - static_cast<double>(at.lo);
    out[i] = v_lo + (v_hi - v_lo) * frac;
  }
}

template <typename T>
void select_impl(std::span<T> xs, std::span<const double> ps,
                 std::span<double> out) {
  select_frame(xs.size(), ps, out, [xs](std::span<const std::size_t> ranks) {
    place_ranks(xs.data(), 0, xs.size(), ranks);
    std::vector<double> stats;
    stats.reserve(ranks.size());
    for (std::size_t r : ranks) stats.push_back(static_cast<double>(xs[r]));
    return stats;
  });
}

// ---- selection over latency ramps -----------------------------------------

/// Order-preserving 32-bit key of a float: key(a) < key(b) iff a < b (with
/// -0 below +0). Flips every bit of a negative, the sign bit of the rest.
std::uint32_t key_of(float f) noexcept {
  const auto bits = std::bit_cast<std::uint32_t>(f);
  return (bits & 0x80000000u) != 0 ? ~bits : bits | 0x80000000u;
}

float float_of(std::uint64_t key) noexcept {
  const auto k = static_cast<std::uint32_t>(key);
  return std::bit_cast<float>((k & 0x80000000u) != 0 ? k & 0x7FFFFFFFu : ~k);
}

/// One ramp's values in non-decreasing order: the ramp read forward when
/// it rises, backward when it falls. The direction comes from the ramp's
/// own end floats, so a ramp that rises by rounding noise reads right too.
class SortedRamp {
 public:
  explicit SortedRamp(const LatencyRamp& r) noexcept : r_(r) {
    const float head = value(0);
    const float tail = value(r.count - 1);
    ascending_ = tail >= head;
    min_key_ = key_of(ascending_ ? head : tail);
    max_key_ = key_of(ascending_ ? tail : head);
    if (min_key_ < max_key_) {
      scale_ = static_cast<double>(r.count - 1) / (r.last - r.first);
    }
  }

  int size() const noexcept { return r_.count; }
  std::uint32_t min_key() const noexcept { return min_key_; }
  std::uint32_t max_key() const noexcept { return max_key_; }
  float at(int j) const noexcept {
    return value(ascending_ ? j : r_.count - 1 - j);
  }

  /// Values whose key is below k. The ramp's real-arithmetic inverse
  /// (request i has latency first + (last - first) * i / (n - 1)) guesses
  /// the count; a window around the guess, widened until it holds the
  /// answer, is then bisected. A right guess costs two evaluations.
  int count_below(std::uint64_t k) const noexcept {
    if (k <= min_key_) return 0;
    if (k > max_key_) return size();
    const int n = size();
    const auto below = [&](int j) { return key_of(at(j)) < k; };
    const double t = (static_cast<double>(float_of(k)) - r_.first) * scale_;
    const double guess = ascending_ ? std::ceil(t) : n - 1 - std::floor(t);
    int lo = std::isfinite(guess) ? static_cast<int>(std::clamp(
                                        guess, 0.0, static_cast<double>(n)))
                                  : 0;
    int hi = lo;
    for (int step = 1; lo > 0 && !below(lo - 1); step *= 2) {
      lo = std::max(lo - step, 0);
    }
    for (int step = 1; hi < n && below(hi); step *= 2) {
      hi = std::min(hi + step, n);
    }
    while (lo < hi) {
      const int mid = lo + (hi - lo) / 2;
      if (below(mid)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

 private:
  float value(int i) const noexcept {
    return static_cast<float>(
        workload::request_latency(r_.first, r_.last, i, r_.count));
  }

  LatencyRamp r_;
  double scale_ = 0.0;  ///< (n - 1) / (last - first): index per second
  bool ascending_ = true;
  std::uint32_t min_key_ = 0;
  std::uint32_t max_key_ = 0;
};

/// Keys that bracket any rank, read off the ramps' end keys alone at the
/// resolution of the keys' high 16 bits: no value below a key belongs to a
/// ramp that starts at or above it, and every value of a ramp that ends
/// below it does. Keeps far outliers out of every bracket.
class EndBounds {
 public:
  explicit EndBounds(const std::vector<SortedRamp>& all)
      : starts_(kBuckets + 1), ends_(kBuckets + 1) {
    for (const SortedRamp& s : all) {
      starts_[(s.min_key() >> 16) + 1] += static_cast<std::uint64_t>(s.size());
      ends_[(s.max_key() >> 16) + 1] += static_cast<std::uint64_t>(s.size());
    }
    std::partial_sum(starts_.begin(), starts_.end(), starts_.begin());
    std::partial_sum(ends_.begin(), ends_.end(), ends_.begin());
  }

  /// A key with at most r values below it: rank r's key is not below it.
  std::uint64_t at_or_below(std::uint64_t r) const {
    return bucket_key(std::upper_bound(starts_.begin(), starts_.end(), r) -
                      starts_.begin() - 1);
  }
  /// A key with more than r values below it: rank r's key is below it.
  std::uint64_t above(std::uint64_t r) const {
    return bucket_key(std::upper_bound(ends_.begin(), ends_.end(), r) -
                      ends_.begin());
  }

 private:
  static constexpr std::size_t kBuckets = std::size_t{1} << 16;
  static std::uint64_t bucket_key(std::ptrdiff_t b) {
    return static_cast<std::uint64_t>(b) << 16;
  }
  // [b]: values of the ramps whose start (end) key's high half is below b.
  std::vector<std::uint64_t> starts_, ends_;
};

/// Largest window (values) the selection expands and sorts.
constexpr std::uint64_t kWindow = 1 << 16;

/// The order statistics of the ramps' expanded floats at sorted ranks.
///
/// For the lowest unresolved rank r it takes the key bracket [k_lo, k_hi)
/// the end keys give, counts the values below each end exactly, and
/// narrows the bracket by regula falsi on those counts, dropping the ramps
/// that leave it. An end kept twice in a row has its weight halved (the
/// Illinois correction), so both ends close in. Once at most kWindow
/// values remain, it expands them, places every rank that falls inside
/// with place_ranks, and goes on above the bracket.
std::vector<double> ramp_order_stats(std::span<const LatencyRamp> ramps,
                                     std::span<const std::size_t> ranks) {
  std::vector<SortedRamp> all;
  all.reserve(ramps.size());
  for (const LatencyRamp& r : ramps) {
    if (r.count > 0) all.emplace_back(r);
  }
  const EndBounds bounds(all);
  std::vector<double> stats(ranks.size());
  std::vector<const SortedRamp*> active;
  std::vector<float> window;
  std::vector<std::size_t> local;
  std::uint64_t floor_key = 0;  // no unresolved rank's key is below this
  for (std::size_t i = 0; i < ranks.size();) {
    const std::uint64_t r = ranks[i];
    std::uint64_t k_lo = std::max(bounds.at_or_below(r), floor_key);
    std::uint64_t k_hi = bounds.above(r);
    std::uint64_t base = 0;  // values of the ramps wholly below k_lo
    active.clear();
    for (const SortedRamp& s : all) {
      if (s.max_key() < k_lo) {
        base += static_cast<std::uint64_t>(s.size());
      } else if (s.min_key() < k_hi) {
        active.push_back(&s);
      }
    }
    const auto count = [&](std::uint64_t k) {
      std::uint64_t c = base;
      for (const SortedRamp* s : active) {
        c += static_cast<std::uint64_t>(s->count_below(k));
      }
      return c;
    };
    std::uint64_t c_lo = count(k_lo), c_hi = count(k_hi);
    double fac_lo = 1.0, fac_hi = 1.0;
    int kept = 0;  // +1: the low end was kept last step; -1: the high end
    while (c_hi - c_lo > kWindow && k_hi - k_lo > 1) {
      const double w_lo = (static_cast<double>(r - c_lo) + 0.5) * fac_lo;
      const double w_hi = (static_cast<double>(c_hi - r) - 0.5) * fac_hi;
      const std::uint64_t k = std::clamp(
          k_lo + static_cast<std::uint64_t>(w_lo / (w_lo + w_hi) *
                                            static_cast<double>(k_hi - k_lo)),
          k_lo + 1, k_hi - 1);
      const std::uint64_t c = count(k);
      if (c <= r) {
        k_lo = k;
        c_lo = c;
        fac_lo = 1.0;
        if (kept < 0) fac_hi /= 2.0;
        kept = -1;
        std::erase_if(active, [&](const SortedRamp* s) {
          if (s->max_key() >= k) return false;
          base += static_cast<std::uint64_t>(s->size());
          return true;
        });
      } else {
        k_hi = k;
        c_hi = c;
        fac_hi = 1.0;
        if (kept > 0) fac_lo /= 2.0;
        kept = 1;
        std::erase_if(active,
                      [k](const SortedRamp* s) { return s->min_key() >= k; });
      }
    }
    local.clear();
    for (std::size_t j = i; j < ranks.size() && ranks[j] < c_hi; ++j) {
      local.push_back(static_cast<std::size_t>(ranks[j] - c_lo));
    }
    if (k_hi - k_lo == 1) {  // ties beyond the window: one float value
      std::fill_n(stats.begin() + static_cast<std::ptrdiff_t>(i),
                  local.size(), static_cast<double>(float_of(k_lo)));
    } else {
      window.clear();
      for (const SortedRamp* s : active) {
        const int end = s->count_below(k_hi);
        for (int j = s->count_below(k_lo); j < end; ++j) {
          window.push_back(s->at(j));
        }
      }
      PROTEAN_DCHECK(window.size() == c_hi - c_lo);
      place_ranks(window.data(), 0, window.size(), local);
      for (std::size_t j = 0; j < local.size(); ++j) {
        stats[i + j] = static_cast<double>(window[local[j]]);
      }
    }
    i += local.size();
    floor_key = k_hi;
  }
  return stats;
}

}  // namespace

void select_percentiles(std::span<float> xs, std::span<const double> ps,
                        std::span<double> out) {
  select_impl(xs, ps, out);
}

void select_percentiles(std::span<double> xs, std::span<const double> ps,
                        std::span<double> out) {
  select_impl(xs, ps, out);
}

void select_percentiles(const LatencyRamps& xs, std::span<const double> ps,
                        std::span<double> out) {
  // Short ramps (small batches) select faster as plain floats, and then
  // the floats take no more memory than the ramp search's own records.
  if (xs.size() * sizeof(float) <= xs.ramps().size() * sizeof(SortedRamp)) {
    std::vector<float> floats;
    floats.reserve(xs.size());
    for (const LatencyRamp& r : xs.ramps()) {
      for (int i = 0; i < r.count; ++i) {
        floats.push_back(static_cast<float>(
            workload::request_latency(r.first, r.last, i, r.count)));
      }
    }
    select_impl(std::span<float>(floats), ps, out);
    return;
  }
  select_frame(xs.size(), ps, out, [&xs](std::span<const std::size_t> ranks) {
    return ramp_order_stats(xs.ramps(), ranks);
  });
}

double percentile(std::vector<float> xs, double p) noexcept {
  double out = 0.0;
  select_percentiles(xs, {&p, 1}, {&out, 1});
  return out;
}

double percentile(std::vector<double> xs, double p) noexcept {
  double out = 0.0;
  select_percentiles(xs, {&p, 1}, {&out, 1});
  return out;
}

double percentile(const LatencyRamps& xs, double p) {
  double out = 0.0;
  select_percentiles(xs, {&p, 1}, {&out, 1});
  return out;
}

double normal_cdf(double z) noexcept {
  return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

double ci95_halfwidth(const std::vector<double>& xs) noexcept {
  if (xs.size() < 2) return 0.0;
  return 1.96 * stddev(xs) / std::sqrt(static_cast<double>(xs.size()));
}

double welch_p_value(const std::vector<double>& a,
                     const std::vector<double>& b) noexcept {
  if (a.size() < 2 || b.size() < 2) return 1.0;
  const double ma = mean(a), mb = mean(b);
  const double va = stddev(a) * stddev(a), vb = stddev(b) * stddev(b);
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  const double se = std::sqrt(va / na + vb / nb);
  if (se <= 0.0) return ma == mb ? 1.0 : 0.0;
  const double t = (ma - mb) / se;
  return 2.0 * (1.0 - normal_cdf(std::fabs(t)));
}

double cohens_d(const std::vector<double>& a,
                const std::vector<double>& b) noexcept {
  if (a.size() < 2 || b.size() < 2) return 0.0;
  const double sa = stddev(a), sb = stddev(b);
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  const double pooled = std::sqrt(
      ((na - 1.0) * sa * sa + (nb - 1.0) * sb * sb) / (na + nb - 2.0));
  if (pooled <= 0.0) return 0.0;
  return (mean(a) - mean(b)) / pooled;
}

}  // namespace protean::metrics
