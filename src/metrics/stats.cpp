#include "metrics/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

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

template <typename T>
void select_impl(std::span<T> xs, std::span<const double> ps,
                 std::span<double> out) {
  PROTEAN_CHECK_MSG(out.size() == ps.size(),
                    "select_percentiles needs one output per percentile");
  if (xs.empty()) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  std::vector<std::size_t> ranks;
  ranks.reserve(2 * ps.size());
  for (double p : ps) {
    const RankPoint at = rank_point(p, xs.size());
    ranks.push_back(at.lo);
    ranks.push_back(at.hi);
  }
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  place_ranks(xs.data(), 0, xs.size(), ranks);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const RankPoint at = rank_point(ps[i], xs.size());
    const double v_lo = static_cast<double>(xs[at.lo]);
    const double v_hi = static_cast<double>(xs[at.hi]);
    const double frac = at.rank - static_cast<double>(at.lo);
    out[i] = v_lo + (v_hi - v_lo) * frac;
  }
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
