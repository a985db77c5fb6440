// Tests for the per-node model-weight cache: hit/miss/evict bookkeeping,
// pinning, the three eviction policies, the offline Belady bound, and the
// nvshare-style oversubscription slowdown pushed into the contention engine.
#include "memcache/model_cache.h"

#include <gtest/gtest.h>

#include <memory>

#include "sim/simulator.h"
#include "workload/model.h"

namespace protean::memcache {
namespace {

workload::ModelProfile make_model(const char* name, MemGb weight) {
  workload::ModelProfile model;
  model.name = name;
  model.batch_size = 8;
  model.solo_time_7g = 0.05;
  model.mem_gb = weight + 1.0;
  model.weight_gb = weight;
  model.fbr = 0.3;
  model.sm_req = 0.55;
  model.deficiency_alpha = 0.15;
  model.tabulate_rdf();
  return model;
}

gpu::JobSpec job(JobId id, Duration solo, MemGb mem) {
  gpu::JobSpec spec;
  spec.id = id;
  spec.solo_time = solo;
  spec.fbr = 0.1;
  spec.sm_share = 0.1;
  spec.mem_gb = mem;
  return spec;
}

/// One 7g slice (40 GB) registered with a cache; with a single slice the
/// whole configured capacity becomes that slice's weight budget.
struct Fixture {
  sim::Simulator sim;
  std::unique_ptr<gpu::Slice> slice;
  std::unique_ptr<ModelCache> cache;

  explicit Fixture(MemCacheConfig config) {
    config.enabled = true;
    slice = std::make_unique<gpu::Slice>(sim, nullptr, 0,
                                         gpu::SliceProfile::k7g,
                                         gpu::SharingMode::kMps);
    cache = std::make_unique<ModelCache>(sim, config);
    cache->sync_slices({slice.get()});
  }
};

MemCacheConfig lru_config(MemGb capacity) {
  MemCacheConfig config;
  config.policy = EvictionPolicy::kLru;
  config.capacity_gb = capacity;
  return config;
}

TEST(Policy, NamesRoundTrip) {
  for (EvictionPolicy policy : {EvictionPolicy::kLru, EvictionPolicy::kGdsf,
                                EvictionPolicy::kOracle}) {
    EXPECT_EQ(parse_policy(to_string(policy)), policy);
  }
  EXPECT_EQ(parse_policy("fifo"), std::nullopt);
}

TEST(ModelCache, LruHitMissEvict) {
  Fixture f(lru_config(10.0));
  const auto a = make_model("a", 4.0);
  const auto b = make_model("b", 4.0);
  const auto c = make_model("c", 4.0);

  EXPECT_FALSE(f.cache->acquire(*f.slice, &a));  // cold miss
  f.cache->release(0, &a);
  f.sim.run_until(1.0);
  EXPECT_FALSE(f.cache->acquire(*f.slice, &b));
  f.cache->release(0, &b);
  f.sim.run_until(2.0);
  EXPECT_TRUE(f.cache->acquire(*f.slice, &a));  // still resident
  f.cache->release(0, &a);

  // c needs 4 GB but only 2 are free: the LRU entry (b) goes.
  f.sim.run_until(3.0);
  EXPECT_FALSE(f.cache->acquire(*f.slice, &c));
  f.cache->release(0, &c);
  EXPECT_TRUE(f.cache->resident(0, &a));
  EXPECT_FALSE(f.cache->resident(0, &b));
  EXPECT_TRUE(f.cache->resident(0, &c));

  EXPECT_EQ(f.cache->stats().hits, 1u);
  EXPECT_EQ(f.cache->stats().misses, 3u);
  EXPECT_EQ(f.cache->stats().evictions, 1u);
  EXPECT_DOUBLE_EQ(f.cache->stats().hit_rate(), 0.25);
  EXPECT_DOUBLE_EQ(f.cache->resident_gb(), 8.0);
  EXPECT_EQ(f.cache->access_log().size(), 4u);
}

TEST(ModelCache, PinnedWeightsAreNeverEvicted) {
  Fixture f(lru_config(10.0));
  const auto a = make_model("a", 6.0);
  const auto b = make_model("b", 6.0);

  EXPECT_FALSE(f.cache->acquire(*f.slice, &a));  // stays pinned
  f.sim.run_until(1.0);
  EXPECT_FALSE(f.cache->acquire(*f.slice, &b));
  // a is the LRU victim but a running kernel maps it: both stay, and the
  // forced overflow shows up as swap pressure instead.
  EXPECT_TRUE(f.cache->resident(0, &a));
  EXPECT_TRUE(f.cache->resident(0, &b));
  EXPECT_EQ(f.cache->stats().evictions, 0u);
  EXPECT_GT(f.slice->swap_slowdown(), 1.0);

  // Unpinning a finally lets the slice trim back under budget.
  f.cache->release(0, &a);
  EXPECT_FALSE(f.cache->resident(0, &a));
  EXPECT_TRUE(f.cache->resident(0, &b));
  EXPECT_EQ(f.cache->stats().evictions, 1u);
  EXPECT_DOUBLE_EQ(f.slice->swap_slowdown(), 1.0);
}

TEST(ModelCache, GdsfEvictsLargeColdModelFirst) {
  MemCacheConfig config = lru_config(10.0);
  config.policy = EvictionPolicy::kGdsf;
  Fixture f(config);
  const auto big = make_model("big", 8.0);
  const auto small = make_model("small", 1.0);
  const auto incoming = make_model("incoming", 5.0);

  EXPECT_FALSE(f.cache->acquire(*f.slice, &big));
  f.cache->release(0, &big);
  f.sim.run_until(1.0);
  EXPECT_FALSE(f.cache->acquire(*f.slice, &small));
  f.cache->release(0, &small);
  f.sim.run_until(2.0);
  EXPECT_TRUE(f.cache->acquire(*f.slice, &big));  // big is now the MRU
  f.cache->release(0, &big);

  // LRU would evict small; GDSF prefers the huge, per-byte-cold entry
  // (priority 2/8 = 0.25 vs 1/1 = 1.0) even though it was touched last.
  f.sim.run_until(3.0);
  EXPECT_FALSE(f.cache->acquire(*f.slice, &incoming));
  f.cache->release(0, &incoming);
  EXPECT_FALSE(f.cache->resident(0, &big));
  EXPECT_TRUE(f.cache->resident(0, &small));
  EXPECT_TRUE(f.cache->resident(0, &incoming));
}

TEST(ModelCache, OracleEvictsFurthestNextUse) {
  MemCacheConfig config = lru_config(10.0);
  config.policy = EvictionPolicy::kOracle;
  Fixture f(config);
  const auto a = make_model("a", 4.0);
  const auto b = make_model("b", 4.0);
  const auto c = make_model("c", 4.0);
  f.cache->set_future_references({CacheAccess{5.0, 0, 10.0, &a},
                                  CacheAccess{100.0, 0, 10.0, &b}});

  EXPECT_FALSE(f.cache->acquire(*f.slice, &a));
  f.cache->release(0, &a);
  f.sim.run_until(1.0);
  EXPECT_FALSE(f.cache->acquire(*f.slice, &b));
  f.cache->release(0, &b);

  // a is needed again at t=5, b only at t=100: Belady keeps a.
  f.sim.run_until(2.0);
  EXPECT_FALSE(f.cache->acquire(*f.slice, &c));
  f.cache->release(0, &c);
  EXPECT_TRUE(f.cache->resident(0, &a));
  EXPECT_FALSE(f.cache->resident(0, &b));
  EXPECT_TRUE(f.cache->resident(0, &c));
}

TEST(ModelCache, BeladyBoundMatchesHandComputedString) {
  const auto x = make_model("x", 1.0);
  const auto y = make_model("y", 1.0);
  const auto z = make_model("z", 1.0);
  // x y z x y with room for two models. Furthest-next-use evicts y at the
  // z-miss (y's reuse is after x's), so x hits: 4 misses. LRU would evict
  // x there and miss all five.
  const std::vector<CacheAccess> refs = {
      {0.0, 0, 2.0, &x}, {1.0, 0, 2.0, &y}, {2.0, 0, 2.0, &z},
      {3.0, 0, 2.0, &x}, {4.0, 0, 2.0, &y}};
  EXPECT_EQ(ModelCache::belady_misses(refs, 2.0), 4u);
  // A budget that fits everything only pays the three cold misses.
  EXPECT_EQ(ModelCache::belady_misses(refs, 3.0), 3u);
}

TEST(ModelCache, BeladyOversizedObjectAlwaysMissesWithoutCollateral) {
  const auto huge = make_model("huge", 5.0);
  const auto small = make_model("small", 1.0);
  // A model larger than the budget misses every time (it can never be
  // retained) but does not evict what does fit.
  const std::vector<CacheAccess> refs = {{0.0, 0, 2.0, &small},
                                         {1.0, 0, 2.0, &huge},
                                         {2.0, 0, 2.0, &small},
                                         {3.0, 0, 2.0, &huge}};
  EXPECT_EQ(ModelCache::belady_misses(refs, 2.0), 3u);
}

TEST(ModelCache, OversizedMissKeepsOtherResidents) {
  Fixture f(lru_config(10.0));
  const auto small = make_model("small", 2.0);
  const auto huge = make_model("huge", 12.0);
  EXPECT_FALSE(f.cache->acquire(*f.slice, &small));
  f.cache->release(0, &small);
  // huge exceeds the whole budget: it runs over-budget while pinned, but
  // evicting small would not have helped, so small survives.
  f.sim.run_until(1.0);
  EXPECT_FALSE(f.cache->acquire(*f.slice, &huge));
  EXPECT_TRUE(f.cache->resident(0, &small));
  EXPECT_EQ(f.cache->stats().evictions, 0u);
  // At release the oversized entry itself is trimmed, not small.
  f.cache->release(0, &huge);
  EXPECT_FALSE(f.cache->resident(0, &huge));
  EXPECT_TRUE(f.cache->resident(0, &small));
}

TEST(ModelCache, OversubscriptionSlowsExecutionAndAccruesStall) {
  MemCacheConfig config = lru_config(10.0);
  config.oversubscribe = true;
  config.max_overcommit = 2.0;
  config.swap_penalty = 0.5;
  Fixture f(config);
  const auto a = make_model("a", 8.0);
  const auto b = make_model("b", 8.0);

  EXPECT_FALSE(f.cache->acquire(*f.slice, &a));
  f.cache->release(0, &a);
  EXPECT_FALSE(f.cache->acquire(*f.slice, &b));
  f.cache->release(0, &b);
  // 16 GB resident against a 10 GB budget, within the 2x overcommit limit:
  // nothing is evicted, but the slice swaps at
  //   factor = 1 + 0.5 * (16/10 - 1) = 1.3.
  EXPECT_EQ(f.cache->stats().evictions, 0u);
  EXPECT_DOUBLE_EQ(f.cache->resident_gb(), 16.0);
  EXPECT_NEAR(f.slice->swap_slowdown(), 1.3, 1e-12);

  // The slowdown reaches actual execution through the contention engine.
  gpu::JobCompletion last;
  f.slice->submit(job(1, 0.1, 1.0),
                  [&](const gpu::JobCompletion& done) { last = done; });
  f.sim.run_to_completion();
  EXPECT_NEAR(last.exec_time, 0.13, 1e-9);
  // Stall integral: 0.13 busy seconds x (1 - 1/1.3).
  EXPECT_NEAR(f.slice->swap_stall_seconds(), 0.03, 1e-9);
}

TEST(ModelCache, SyncSlicesDropsDeadSlicesAndRebudgets) {
  sim::Simulator sim;
  gpu::Slice s0(sim, nullptr, 0, gpu::SliceProfile::k2g,
                gpu::SharingMode::kMps);
  gpu::Slice s1(sim, nullptr, 1, gpu::SliceProfile::k2g,
                gpu::SharingMode::kMps);
  ModelCache cache(sim, lru_config(8.0));
  cache.sync_slices({&s0, &s1});
  EXPECT_DOUBLE_EQ(cache.budget_gb(0), 4.0);  // split across equal slices
  EXPECT_DOUBLE_EQ(cache.budget_gb(1), 4.0);

  const auto m = make_model("m", 3.0);
  EXPECT_FALSE(cache.acquire(s1, &m));
  cache.release(1, &m);
  EXPECT_TRUE(cache.resident(1, &m));

  // A reconfiguration destroyed slice 1: its entries are gone and the
  // survivor inherits the whole capacity.
  cache.sync_slices({&s0});
  EXPECT_FALSE(cache.resident(1, &m));
  EXPECT_DOUBLE_EQ(cache.resident_gb(), 0.0);
  EXPECT_DOUBLE_EQ(cache.budget_gb(0), 8.0);
  EXPECT_DOUBLE_EQ(cache.budget_gb(1), 0.0);
}

TEST(ModelCache, SyncSlicesCountsOrphanedPinsInsteadOfCrashing) {
  // Regression: ECC (Gpu::fail_slice) can destroy a slice while a booting
  // container still holds its acquire() pin. Dropping the dead slice used
  // to assert pins == 0 in Debug builds; the pin is now counted as
  // orphaned, and the paired release() stays a harmless no-op.
  sim::Simulator sim;
  gpu::Slice s0(sim, nullptr, 0, gpu::SliceProfile::k2g,
                gpu::SharingMode::kMps);
  gpu::Slice s1(sim, nullptr, 1, gpu::SliceProfile::k2g,
                gpu::SharingMode::kMps);
  ModelCache cache(sim, lru_config(8.0));
  cache.sync_slices({&s0, &s1});

  const auto m = make_model("m", 3.0);
  EXPECT_FALSE(cache.acquire(s1, &m));  // pin held: container booting
  EXPECT_EQ(cache.orphaned_pins(), 0u);

  cache.sync_slices({&s0});  // slice 1 died with the pin outstanding
  EXPECT_EQ(cache.orphaned_pins(), 1u);
  EXPECT_FALSE(cache.resident(1, &m));
  cache.release(1, &m);  // the boot continuation's release: a no-op
  EXPECT_EQ(cache.orphaned_pins(), 1u);
  EXPECT_DOUBLE_EQ(cache.resident_gb(), 0.0);
}

TEST(ModelCache, SyncSlicesTrimsShrunkBudgets) {
  sim::Simulator sim;
  gpu::Slice s0(sim, nullptr, 0, gpu::SliceProfile::k7g,
                gpu::SharingMode::kMps);
  gpu::Slice s1(sim, nullptr, 1, gpu::SliceProfile::k7g,
                gpu::SharingMode::kMps);
  ModelCache cache(sim, lru_config(10.0));
  cache.sync_slices({&s0});

  const auto a = make_model("a", 4.0);
  const auto b = make_model("b", 4.0);
  EXPECT_FALSE(cache.acquire(s0, &a));
  cache.release(0, &a);
  sim.run_until(1.0);
  EXPECT_FALSE(cache.acquire(s0, &b));
  cache.release(0, &b);
  EXPECT_DOUBLE_EQ(cache.resident_gb(0), 8.0);

  // A second equal slice halves slice 0's budget to 5 GB; the LRU entry is
  // trimmed to fit.
  cache.sync_slices({&s0, &s1});
  EXPECT_DOUBLE_EQ(cache.budget_gb(0), 5.0);
  EXPECT_FALSE(cache.resident(0, &a));
  EXPECT_TRUE(cache.resident(0, &b));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ModelCache, TimelineTracksResidencyAndResetDropsState) {
  Fixture f(lru_config(10.0));
  const auto a = make_model("a", 4.0);
  EXPECT_FALSE(f.cache->acquire(*f.slice, &a));
  f.cache->release(0, &a);
  ASSERT_FALSE(f.cache->timeline().empty());
  EXPECT_DOUBLE_EQ(f.cache->timeline().back().second, 4.0);

  f.cache->reset();  // the VM was evicted; device memory is gone
  EXPECT_DOUBLE_EQ(f.cache->resident_gb(), 0.0);
  EXPECT_FALSE(f.cache->resident(0, &a));
  EXPECT_DOUBLE_EQ(f.cache->timeline().back().second, 0.0);
}

TEST(ModelCache, AcquireOnUnregisteredSliceThrows) {
  sim::Simulator sim;
  gpu::Slice slice(sim, nullptr, 7, gpu::SliceProfile::k7g,
                   gpu::SharingMode::kMps);
  ModelCache cache(sim, lru_config(10.0));  // no sync_slices yet
  const auto a = make_model("a", 4.0);
  EXPECT_THROW(cache.acquire(slice, &a), std::logic_error);
}

TEST(ModelCache, InvalidConfigsThrow) {
  sim::Simulator sim;
  EXPECT_THROW(ModelCache(sim, lru_config(0.0)), std::logic_error);
  MemCacheConfig config = lru_config(8.0);
  config.max_overcommit = 0.5;
  EXPECT_THROW(ModelCache(sim, config), std::logic_error);
}

}  // namespace
}  // namespace protean::memcache
