// Configuration of the per-node model-weight cache.
//
// Kept separate from the cache implementation so that ClusterConfig can
// embed it without pulling the whole subsystem into every translation unit.
#pragma once

#include <optional>
#include <string>

#include "common/types.h"

namespace protean::memcache {

/// Which resident model's weights to evict when the cache needs room.
enum class EvictionPolicy {
  kLru,    ///< least-recently-used
  kGdsf,   ///< Greedy-Dual-Size-Frequency: size-aware, evicts large cold
           ///< models first (priority = clock + uses / weight_gb)
  kOracle  ///< Belady-style furthest-next-use; needs future references
           ///< (upper-bound studies only)
};

const char* to_string(EvictionPolicy policy) noexcept;
std::optional<EvictionPolicy> parse_policy(const std::string& name) noexcept;

/// Knobs of the weight cache and the nvshare-style oversubscription model.
/// Default-disabled: with `enabled == false` every simulation reproduces the
/// pre-cache results bit for bit.
struct MemCacheConfig {
  bool enabled = false;
  EvictionPolicy policy = EvictionPolicy::kLru;

  /// Per-node device memory earmarked for resident weights, split across
  /// the node's slices proportionally to slice memory.
  MemGb capacity_gb = 16.0;

  /// nvshare-style oversubscription: resident weights may exceed the slice
  /// budget (up to `max_overcommit` ×) at the cost of a swap slowdown
  ///   factor = 1 + swap_penalty × max(0, resident/budget − 1)
  /// applied through the contention engine. With oversubscription off the
  /// cache evicts down to the budget instead.
  bool oversubscribe = false;
  double max_overcommit = 1.5;
  double swap_penalty = 0.8;
};

/// Share of the container cold-start latency that loads model weights (vs
/// runtime/container init); a cache hit skips it.
inline constexpr double kWeightLoadFraction = 0.6;
/// Cache-affinity term for the schedulers: with the cache enabled, slices
/// where the model is already resident are preferred with this weight.
inline constexpr double kAffinityWeight = 0.25;

}  // namespace protean::memcache
