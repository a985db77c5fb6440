#include "metrics/stats.h"

#include <algorithm>
#include <array>
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

/// Request i of a ramp as the float store kept it.
float value_of(const LatencyRamp& r, int i) noexcept {
  return static_cast<float>(
      workload::request_latency(r.first, r.last, i, r.count));
}

/// The keys of a ramp's lowest and highest values, read off its end floats
/// value_of(r, 0) and value_of(r, r.count - 1) without their divisions:
/// request_latency's fraction is exactly 0 and 1 there. The ramp is
/// monotone, so every value's key lies between the two.
struct RampEnds {
  explicit RampEnds(const LatencyRamp& r) noexcept {
    const double span = r.last - r.first;
    head = static_cast<float>(r.first + span * 0.0);
    tail = static_cast<float>(r.first + span * (r.count == 1 ? 0.0 : 1.0));
  }
  std::uint32_t min_key() const noexcept {
    return std::min(key_of(head), key_of(tail));
  }
  std::uint32_t max_key() const noexcept {
    return std::max(key_of(head), key_of(tail));
  }
  float head;  // value_of(r, 0)
  float tail;  // value_of(r, r.count - 1)
};

/// Bits of the key that each level of the radix select resolves, from the
/// top: one 2^11-bucket histogram per distinct prefix at most.
constexpr std::array<int, 3> kRadixLevels = {11, 11, 10};
constexpr std::size_t kFan = std::size_t{1} << 11;
static_assert(kRadixLevels[0] == 11 && kRadixLevels[1] == 11,
              "the prefix tables index 11-bit chunks");

/// Where a key counts at one level of the radix select: the histogram of
/// the wanted prefix its top bits match, or a discard histogram past the
/// wanted ones when they match none. A table of 2^11 entries per resolved
/// 11-bit chunk, read without a branch; the table and the histograms are
/// the select's only memory.
class PrefixRows {
 public:
  /// `wanted` holds the sorted distinct prefixes of `depth` chunks (0, 1
  /// or 2) that the ranks have reached.
  PrefixRows(std::span<const std::uint64_t> wanted, int depth)
      : depth_(depth), discard_(static_cast<std::uint32_t>(wanted.size())) {
    if (depth_ == 1) {
      table_.assign(kFan, discard_);
      for (std::size_t j = 0; j < wanted.size(); ++j) {
        table_[wanted[j]] = static_cast<std::uint32_t>(j);
      }
    } else if (depth_ == 2) {
      // Node 0 maps the top chunk to a node of the second chunk's rows.
      // Node 1 maps every chunk to the discard histogram; each top chunk
      // of a wanted prefix gets a node of its own.
      std::size_t tops = 0;
      for (std::size_t j = 0; j < wanted.size(); ++j) {
        if (j == 0 || wanted[j] >> 11 != wanted[j - 1] >> 11) ++tops;
      }
      table_.reserve((2 + tops) * kFan);
      table_.assign(2 * kFan, kDeadNode);
      std::fill(table_.begin() + kFan, table_.end(), discard_);
      for (std::size_t j = 0; j < wanted.size(); ++j) {
        std::uint32_t& node = table_[wanted[j] >> 11];
        if (node == kDeadNode) {
          node = static_cast<std::uint32_t>(table_.size() / kFan);
          table_.resize(table_.size() + kFan, discard_);
        }
        table_[node * kFan + (wanted[j] & (kFan - 1))] =
            static_cast<std::uint32_t>(j);
      }
    }
  }

  /// The histogram `key` counts in.
  std::uint32_t row(std::uint32_t key) const noexcept {
    switch (depth_) {
      case 0:
        return 0;
      case 1:
        return table_[key >> 21];
      default:
        return table_[table_[key >> 21] * kFan + ((key >> 10) & (kFan - 1))];
    }
  }

 private:
  static constexpr std::uint32_t kDeadNode = 1;
  int depth_;
  std::uint32_t discard_;
  std::vector<std::uint32_t> table_;
};

/// The order statistics of the ramps' expanded floats at sorted ranks, by
/// an exact radix select on their keys. Each level is one pass over the
/// ramps in place. It counts, per distinct key prefix the ranks have
/// reached, the values with that prefix by their next bits, and moves each
/// rank into its bucket. After the last level each rank's key is whole.
///
/// No value is stored. A ramp is monotone, so one whose end keys share a
/// bucket is counted from its ends alone, and one whose keys lie wholly
/// outside the wanted prefixes' range is skipped; only the rest are read
/// value by value. Memory is one histogram per distinct prefix, plus a
/// discard histogram and the prefix tables, whatever the ramp count.
///
/// Keys order -0 below +0, as the ramp search does; the float path's
/// nth_element holds them equal. The two only differ in the sign of a zero
/// order statistic, and select_frame's interpolation adds a non-negative
/// difference to it, which makes a zero percentile +0 either way.
std::vector<double> radix_order_stats(const RampSource& xs,
                                      std::span<const std::size_t> ranks) {
  if (ranks.empty()) return {};
  // Per rank: the key bits resolved so far, and the rank's place among the
  // values with that prefix. Ranks are sorted, so prefixes stay sorted.
  std::vector<std::uint64_t> prefix(ranks.size(), 0);
  std::vector<std::uint64_t> within(ranks.begin(), ranks.end());
  std::vector<std::uint64_t> wanted;  // the distinct prefixes, sorted
  std::array<LatencyRamp, 256> block;  // the ramps are read in runs
  int resolved = 0;
  for (std::size_t level = 0; level < kRadixLevels.size(); ++level) {
    const int bits = kRadixLevels[level];
    const int below = 32 - resolved - bits;  // key bits under this level's
    const int shift = below + bits;          // key >> shift: the prefix
    const std::size_t buckets = std::size_t{1} << bits;
    const std::uint64_t mask = buckets - 1;
    wanted.assign(prefix.begin(), prefix.end());
    wanted.erase(std::unique(wanted.begin(), wanted.end()), wanted.end());
    const PrefixRows rows(wanted, static_cast<int>(level));
    // One histogram per wanted prefix, then the discard histogram. Each
    // level's are freed before the next level's are made.
    std::vector<std::uint64_t> counts((wanted.size() + 1) * buckets, 0);
    const auto count = [&](std::uint64_t key, std::uint64_t n) {
      counts[rows.row(static_cast<std::uint32_t>(key)) * buckets +
             ((key >> below) & mask)] += n;
    };
    const std::uint64_t first = wanted.front(), last = wanted.back();
    for (std::size_t begin = 0; begin < xs.slots(); begin += block.size()) {
      const std::span<LatencyRamp> run =
          std::span(block).first(std::min(block.size(), xs.slots() - begin));
      xs.read(begin, run);
      for (const LatencyRamp& r : run) {
        if (r.count <= 0) continue;
        const RampEnds ends(r);
        const std::uint64_t lo = ends.min_key(), hi = ends.max_key();
        if (hi >> shift < first || lo >> shift > last) continue;
        if (lo >> below == hi >> below) {  // one bucket holds the whole ramp
          count(lo, static_cast<std::uint64_t>(r.count));
          continue;
        }
        for (int i = 0; i < r.count; ++i) count(key_of(value_of(r, i)), 1);
      }
    }
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      const std::uint64_t* hist =
          &counts[rows.row(static_cast<std::uint32_t>(prefix[i] << shift)) *
                  buckets];
      std::size_t b = 0;
      for (; b + 1 < buckets && within[i] >= hist[b]; ++b) {
        within[i] -= hist[b];
      }
      PROTEAN_DCHECK(within[i] < hist[b]);
      prefix[i] = prefix[i] << bits | b;
    }
    resolved += bits;
  }
  std::vector<double> stats(ranks.size());
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    stats[i] = static_cast<double>(float_of(prefix[i]));
  }
  return stats;
}

/// Largest slot a RampHeader can hold.
constexpr std::size_t kMaxSlot = 0x7FFFFFFF;

/// All the ramp search keeps of one ramp while the ramp itself stays where
/// it is: its slot, the direction it reads in non-decreasing order, its end
/// keys and its request count. The direction comes from the ramp's own end
/// floats, so a ramp that rises by rounding noise reads right too.
class RampHeader {
 public:
  RampHeader(std::size_t slot, const LatencyRamp& r) noexcept
      : count_(r.count) {
    const RampEnds ends(r);
    const bool ascending = ends.tail >= ends.head;
    tagged_slot_ = static_cast<std::uint32_t>(slot << 1) |
                   static_cast<std::uint32_t>(ascending);
    min_key_ = key_of(ascending ? ends.head : ends.tail);
    max_key_ = key_of(ascending ? ends.tail : ends.head);
  }

  std::size_t slot() const noexcept { return tagged_slot_ >> 1; }
  bool ascending() const noexcept { return (tagged_slot_ & 1u) != 0; }
  std::uint32_t min_key() const noexcept { return min_key_; }
  std::uint32_t max_key() const noexcept { return max_key_; }
  int size() const noexcept { return count_; }

 private:
  std::uint32_t tagged_slot_;  // slot << 1 | ascending
  std::uint32_t min_key_;
  std::uint32_t max_key_;
  std::int32_t count_;
};
static_assert(sizeof(RampHeader) == 16, "a ramp header is 16 bytes");

/// One ramp's values in non-decreasing order: the ramp read forward when
/// it rises, backward when it falls. A view over the ramp and its header.
class SortedRamp {
 public:
  SortedRamp(const LatencyRamp& r, const RampHeader& header) noexcept
      : r_(r), header_(header) {
    if (header.min_key() < header.max_key()) {
      scale_ = static_cast<double>(r.count - 1) / (r.last - r.first);
    }
  }

  int size() const noexcept { return r_.count; }
  float at(int j) const noexcept {
    return value_of(r_, header_.ascending() ? j : r_.count - 1 - j);
  }

  /// Values whose key is below k. The ramp's real-arithmetic inverse
  /// (request i has latency first + (last - first) * i / (n - 1)) guesses
  /// the count; a window around the guess, widened until it holds the
  /// answer, is then bisected. A right guess costs two evaluations.
  int count_below(std::uint64_t k) const noexcept {
    if (k <= header_.min_key()) return 0;
    if (k > header_.max_key()) return size();
    const int n = size();
    const auto below = [&](int j) { return key_of(at(j)) < k; };
    const double t = (static_cast<double>(float_of(k)) - r_.first) * scale_;
    const double guess =
        header_.ascending() ? std::ceil(t) : n - 1 - std::floor(t);
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
  LatencyRamp r_;
  RampHeader header_;
  double scale_ = 0.0;  ///< (n - 1) / (last - first): index per second
};

/// Keys that bracket any rank, read off the ramps' end keys alone at the
/// resolution of the keys' high 16 bits: no value below a key belongs to a
/// ramp that starts at or above it, and every value of a ramp that ends
/// below it does. Keeps far outliers out of every bracket. The buckets span
/// only the end keys' range: 2.6k buckets (40 KiB) for latencies from 1 ms
/// to 1000 s, 1 MiB at most. Fill with add(), then seal() before the first
/// query.
class EndBounds {
 public:
  /// Buckets for the keys in [min_key, max_key].
  EndBounds(std::uint32_t min_key, std::uint32_t max_key)
      : first_(min_key >> 16),
        starts_((max_key >> 16) - first_ + 2),
        ends_(starts_.size()) {}

  void add(const RampHeader& ramp) {
    starts_[(ramp.min_key() >> 16) - first_ + 1] +=
        static_cast<std::uint64_t>(ramp.size());
    ends_[(ramp.max_key() >> 16) - first_ + 1] +=
        static_cast<std::uint64_t>(ramp.size());
  }
  void seal() {
    for (auto* values : {&starts_, &ends_}) {
      std::partial_sum(values->begin(), values->end(), values->begin());
    }
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
  std::uint64_t bucket_key(std::ptrdiff_t b) const {
    return (first_ + static_cast<std::uint64_t>(b)) << 16;
  }
  std::uint32_t first_;  // the lowest key's bucket
  // [b]: values of the ramps whose start (end) key's high half is below
  // first_ + b.
  std::vector<std::uint64_t> starts_, ends_;
};

/// The ramps of a source as the ramp search sees them: one pass reads a
/// header per ramp, in slot order. The search's low key only rises, so a
/// ramp wholly below it is dropped for good and only its value count kept;
/// a header above the bracket costs a count one key comparison. Only a
/// ramp that a key falls inside is read from the source again.
class GatheredRamps {
 public:
  explicit GatheredRamps(const RampSource& source) : source_(source) {
    headers_.reserve(source.ramps());
    for (std::size_t slot = 0; slot < source.slots(); ++slot) {
      const LatencyRamp r = source.ramp(slot);
      if (r.count > 0) headers_.emplace_back(slot, r);
    }
  }

  std::span<const RampHeader> headers() const noexcept { return headers_; }
  LatencyRamp ramp(const RampHeader& h) const {
    return source_.ramp(h.slot());
  }
  /// Drops the ramps wholly below k_lo, which never falls from call to
  /// call.
  void drop_below(std::uint64_t k_lo) {
    std::erase_if(headers_, [&](const RampHeader& h) {
      if (h.max_key() >= k_lo) return false;
      below_ += static_cast<std::uint64_t>(h.size());
      return true;
    });
  }
  /// Values of the ramps dropped so far.
  std::uint64_t dropped() const noexcept { return below_; }

 private:
  const RampSource& source_;
  std::vector<RampHeader> headers_;
  std::uint64_t below_ = 0;  // values of the ramps dropped so far
};

/// Largest window (values) the selection expands and sorts.
constexpr std::uint64_t kWindow = 1 << 16;

/// The order statistics of the ramps' expanded floats at sorted ranks.
/// Values are selected from the multiset, so the order the ramps are
/// visited in does not matter.
///
/// For the lowest unresolved rank r it takes the key bracket [k_lo, k_hi)
/// the end keys give, counts the values below each end exactly, and
/// narrows the bracket by regula falsi on those counts. An end kept twice
/// in a row has its weight halved (the Illinois correction), so both ends
/// close in. Once at most kWindow values remain, it expands them, places
/// every rank that falls inside with place_ranks, and goes on above the
/// bracket. A count reads only the headers, and the ramps the key falls
/// inside.
std::vector<double> ramp_order_stats(GatheredRamps& ramps,
                                     std::span<const std::size_t> ranks) {
  const auto sorted = [&ramps](const RampHeader& a) {
    return SortedRamp(ramps.ramp(a), a);
  };
  std::uint32_t min_key = ~std::uint32_t{0}, max_key = 0;
  for (const RampHeader& a : ramps.headers()) {
    min_key = std::min(min_key, a.min_key());
    max_key = std::max(max_key, a.max_key());
  }
  EndBounds bounds(min_key, max_key);
  for (const RampHeader& a : ramps.headers()) bounds.add(a);
  bounds.seal();
  std::vector<double> stats(ranks.size());
  std::vector<float> window;
  std::vector<std::size_t> local;
  std::uint64_t floor_key = 0;    // no unresolved rank's key is below this
  std::uint64_t floor_count = 0;  // values below floor_key
  for (std::size_t i = 0; i < ranks.size();) {
    const std::uint64_t r = ranks[i];
    std::uint64_t k_lo = std::max(bounds.at_or_below(r), floor_key);
    std::uint64_t k_hi = bounds.above(r);
    ramps.drop_below(k_lo);
    const auto count = [&](std::uint64_t k) {
      std::uint64_t c = ramps.dropped();
      for (const RampHeader& a : ramps.headers()) {
        if (k <= a.min_key()) continue;
        c += static_cast<std::uint64_t>(
            k > a.max_key() ? a.size() : sorted(a).count_below(k));
      }
      return c;
    };
    std::uint64_t c_lo = k_lo == floor_key ? floor_count : count(k_lo);
    std::uint64_t c_hi = count(k_hi);
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
        ramps.drop_below(k_lo);
        fac_lo = 1.0;
        if (kept < 0) fac_hi /= 2.0;
        kept = -1;
      } else {
        k_hi = k;
        c_hi = c;
        fac_hi = 1.0;
        if (kept > 0) fac_lo /= 2.0;
        kept = 1;
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
      for (const RampHeader& a : ramps.headers()) {
        if (a.max_key() < k_lo || a.min_key() >= k_hi) continue;
        const SortedRamp s = sorted(a);
        const int end = s.count_below(k_hi);
        for (int j = s.count_below(k_lo); j < end; ++j) {
          window.push_back(s.at(j));
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
    floor_count = c_hi;
  }
  return stats;
}

/// The ramps of a LatencyRamps as a RampSource.
class RampArray final : public RampSource {
 public:
  explicit RampArray(const LatencyRamps& xs) noexcept
      : ramps_(xs.ramps()), requests_(xs.size()) {
    for (const LatencyRamp& r : ramps_) nonempty_ += r.count > 0 ? 1 : 0;
  }
  std::size_t slots() const override { return ramps_.size(); }
  LatencyRamp ramp(std::size_t slot) const override { return ramps_[slot]; }
  std::size_t requests() const override { return requests_; }
  std::size_t ramps() const override { return nonempty_; }

 private:
  std::span<const LatencyRamp> ramps_;
  std::size_t requests_;
  std::size_t nonempty_ = 0;
};

}  // namespace

void select_percentiles(std::span<float> xs, std::span<const double> ps,
                        std::span<double> out) {
  select_impl(xs, ps, out);
}

void select_percentiles(std::span<double> xs, std::span<const double> ps,
                        std::span<double> out) {
  select_impl(xs, ps, out);
}

void select_percentiles(const RampSource& xs, std::span<const double> ps,
                        std::span<double> out) {
  PROTEAN_CHECK_MSG(xs.slots() <= kMaxSlot + 1,
                    "more ramp slots than the ramp search can index");
  // The radix select on short ramps, four requests per ramp or fewer on
  // average, where a header per ramp would take as much memory as the
  // floats: it keeps nothing per ramp. The perfbench workloads sit on either side: llm-fleet's BERT
  // batches hold at most 4 requests (radix), the other three's batches
  // about 128 (search).
  if (xs.requests() * sizeof(float) <= xs.ramps() * sizeof(RampHeader)) {
    select_frame(xs.requests(), ps, out,
                 [&xs](std::span<const std::size_t> ranks) {
                   return radix_order_stats(xs, ranks);
                 });
    return;
  }
  select_frame(xs.requests(), ps, out,
               [&xs](std::span<const std::size_t> ranks) {
                 GatheredRamps ramps(xs);
                 return ramp_order_stats(ramps, ranks);
               });
}

void select_percentiles(const LatencyRamps& xs, std::span<const double> ps,
                        std::span<double> out) {
  select_percentiles(RampArray(xs), ps, out);
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
