// Tests for the spot market and cost-aware procurement (Sections 2.3, 4.5).
#include "spot/market.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.h"

namespace protean::spot {
namespace {

struct RecordingListener : NodeLifecycleListener {
  struct Event {
    char kind;  // 'n' notice, 'e' evicted, 'r' restored
    NodeId node;
    SimTime when;
  };
  std::vector<Event> events;
  sim::Simulator* sim = nullptr;

  void on_eviction_notice(NodeId node, SimTime) override {
    events.push_back({'n', node, sim->now()});
  }
  void on_node_evicted(NodeId node) override {
    events.push_back({'e', node, sim->now()});
  }
  void on_node_restored(NodeId node, VmTier) override {
    events.push_back({'r', node, sim->now()});
  }
};

TEST(Pricing, Table3Values) {
  const auto& table = pricing_table();
  ASSERT_EQ(table.size(), 3u);
  EXPECT_STREQ(table[0].provider, "AWS");
  EXPECT_NEAR(table[0].savings_pct(), 69.99, 0.05);
  EXPECT_NEAR(table[1].savings_pct(), 45.01, 0.05);
  EXPECT_NEAR(table[2].savings_pct(), 70.70, 0.05);
}

MarketConfig config_for(ProcurementPolicy policy, double p_rev) {
  MarketConfig config;
  config.policy = policy;
  config.p_rev = p_rev;
  config.seed = 3;
  return config;
}

TEST(Market, OnDemandOnlyNeverEvicts) {
  sim::Simulator sim;
  RecordingListener listener;
  listener.sim = &sim;
  Market market(sim, config_for(ProcurementPolicy::kOnDemandOnly, 0.7), 4,
                listener);
  market.start();
  sim.run_until(600.0);
  EXPECT_EQ(market.evictions(), 0);
  EXPECT_EQ(market.nodes_up(), 4u);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(market.node_tier(n), VmTier::kOnDemand);
  }
  market.stop();
}

TEST(Market, OnDemandCostMatchesReference) {
  sim::Simulator sim;
  RecordingListener listener;
  listener.sim = &sim;
  Market market(sim, config_for(ProcurementPolicy::kOnDemandOnly, 0.0), 8,
                listener);
  market.start();
  sim.run_until(3600.0);
  EXPECT_NEAR(market.total_cost(), 8 * 32.7726, 1e-6);
  EXPECT_NEAR(market.total_cost(), market.on_demand_reference_cost(), 1e-6);
  market.stop();
}

TEST(Market, SpotFleetIsCheaperThanOnDemand) {
  sim::Simulator sim;
  RecordingListener listener;
  listener.sim = &sim;
  Market market(sim, config_for(ProcurementPolicy::kSpotOnly, 0.0), 8,
                listener);
  market.start();
  sim.run_until(3600.0);
  // P_rev = 0: all spot, no evictions. ~70% cheaper (Table 3).
  EXPECT_NEAR(market.total_cost() / market.on_demand_reference_cost(), 0.30,
              0.01);
  market.stop();
}

TEST(Market, HybridWithZeroPrevIsAllSpot) {
  sim::Simulator sim;
  RecordingListener listener;
  listener.sim = &sim;
  Market market(sim, config_for(ProcurementPolicy::kHybrid, 0.0), 8, listener);
  market.start();
  sim.run_until(1000.0);
  EXPECT_EQ(market.evictions(), 0);
  EXPECT_EQ(market.nodes_up(), 8u);
  market.stop();
}

TEST(Market, RevocationsFollowNoticeThenEviction) {
  sim::Simulator sim;
  RecordingListener listener;
  listener.sim = &sim;
  auto config = config_for(ProcurementPolicy::kHybrid, 1.0);  // always revoke
  config.spot_availability = 1.0;  // ...but requests always granted
  config.eviction_notice = 30.0;
  Market market(sim, config, 1, listener);
  market.start();
  sim.run_until(200.0);
  market.stop();

  // Expect: restore(t=0), notice(t=60), evicted(t=90), restore(t<=91)...
  ASSERT_GE(listener.events.size(), 4u);
  EXPECT_EQ(listener.events[0].kind, 'r');
  EXPECT_EQ(listener.events[1].kind, 'n');
  EXPECT_DOUBLE_EQ(listener.events[1].when, 60.0);
  EXPECT_EQ(listener.events[2].kind, 'e');
  EXPECT_DOUBLE_EQ(listener.events[2].when, 90.0);
  EXPECT_EQ(listener.events[3].kind, 'r');
  EXPECT_LE(listener.events[3].when, 91.0);
}

TEST(Market, HybridFallsBackToOnDemandUnderTightMarket) {
  sim::Simulator sim;
  RecordingListener listener;
  listener.sim = &sim;
  Market market(sim, config_for(ProcurementPolicy::kHybrid, 1.0), 4, listener);
  market.start();
  sim.run_until(500.0);
  // With P_rev = 1 every spot request fails: the fleet must be entirely
  // on-demand yet fully up.
  EXPECT_EQ(market.nodes_up(), 4u);
  for (NodeId n = 0; n < 4; ++n) {
    if (market.node_up(n)) EXPECT_EQ(market.node_tier(n), VmTier::kOnDemand);
  }
  market.stop();
}

TEST(Market, SpotOnlyLeavesNodesDownUnderTightMarket) {
  sim::Simulator sim;
  RecordingListener listener;
  listener.sim = &sim;
  Market market(sim, config_for(ProcurementPolicy::kSpotOnly, 1.0), 4,
                listener);
  market.start();
  sim.run_until(500.0);
  EXPECT_EQ(market.nodes_up(), 0u);
  market.stop();
}

TEST(Market, ModerateAvailabilityKeepsMostOfHybridFleetUp) {
  sim::Simulator sim;
  RecordingListener listener;
  listener.sim = &sim;
  Market market(sim, config_for(ProcurementPolicy::kHybrid, 0.354), 8,
                listener);
  market.start();
  // Sample availability over a long run.
  int up_samples = 0, samples = 0;
  for (double t = 50.0; t <= 2000.0; t += 50.0) {
    sim.run_until(t);
    up_samples += static_cast<int>(market.nodes_up());
    samples += 8;
  }
  EXPECT_GT(market.evictions(), 0);
  // Hybrid loses capacity only during the boot/eviction gap.
  EXPECT_GT(static_cast<double>(up_samples) / samples, 0.9);
  market.stop();
}

TEST(Market, HybridCostBetweenSpotAndOnDemand) {
  sim::Simulator sim;
  RecordingListener listener;
  listener.sim = &sim;
  Market market(sim, config_for(ProcurementPolicy::kHybrid, 0.354), 8,
                listener);
  market.start();
  sim.run_until(3600.0);
  const double ratio = market.total_cost() / market.on_demand_reference_cost();
  EXPECT_GT(ratio, 0.30);
  EXPECT_LT(ratio, 1.0);
  market.stop();
}

TEST(Market, DeterministicForSameSeed) {
  auto run = [] {
    sim::Simulator sim;
    RecordingListener listener;
    listener.sim = &sim;
    Market market(sim, config_for(ProcurementPolicy::kHybrid, 0.5), 8,
                  listener);
    market.start();
    sim.run_until(1000.0);
    market.stop();
    return std::make_pair(market.evictions(), market.total_cost());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

TEST(Market, SpotOnlyWaitAndRetryIsDeterministic) {
  // kSpotOnly under a tight market parks nodes and retries acquisition on a
  // timer; the whole event sequence must replay exactly for a fixed seed.
  auto run = [] {
    sim::Simulator sim;
    RecordingListener listener;
    listener.sim = &sim;
    auto config = config_for(ProcurementPolicy::kSpotOnly, 0.7);
    config.spot_retry_interval = 20.0;
    Market market(sim, config, 6, listener);
    market.start();
    sim.run_until(1500.0);
    market.stop();
    return std::make_tuple(listener.events.size(), market.evictions(),
                           market.total_cost());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_DOUBLE_EQ(std::get<2>(a), std::get<2>(b));

  // The full event tapes (kind, node, time) match, not just the summary.
  auto tape = [] {
    sim::Simulator sim;
    RecordingListener listener;
    listener.sim = &sim;
    auto config = config_for(ProcurementPolicy::kSpotOnly, 0.7);
    config.spot_retry_interval = 20.0;
    Market market(sim, config, 6, listener);
    market.start();
    sim.run_until(1500.0);
    market.stop();
    return listener.events;
  };
  const auto ta = tape();
  const auto tb = tape();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].kind, tb[i].kind) << i;
    EXPECT_EQ(ta[i].node, tb[i].node) << i;
    EXPECT_DOUBLE_EQ(ta[i].when, tb[i].when) << i;
  }
}

TEST(Market, ForceKillOnlyLandsOnUpSpotNodes) {
  sim::Simulator sim;
  RecordingListener listener;
  listener.sim = &sim;
  auto config = config_for(ProcurementPolicy::kHybrid, 0.0);  // all spot
  config.vm_boot_time = 5.0;
  Market market(sim, config, 2, listener);
  market.start();
  sim.run_until(10.0);
  ASSERT_TRUE(market.node_up(0));
  EXPECT_TRUE(market.force_kill(0));
  EXPECT_FALSE(market.node_up(0));
  EXPECT_EQ(market.evictions(), 1);
  EXPECT_FALSE(market.force_kill(0));  // already down: a miss
  // A replacement comes up after the boot time under the hybrid policy.
  sim.run_until(20.0);
  EXPECT_TRUE(market.node_up(0));
  market.stop();
}

TEST(Market, ForceKillMissesOnDemandNodes) {
  sim::Simulator sim;
  RecordingListener listener;
  listener.sim = &sim;
  Market market(sim, config_for(ProcurementPolicy::kOnDemandOnly, 0.0), 2,
                listener);
  market.start();
  sim.run_until(10.0);
  EXPECT_FALSE(market.force_kill(0));
  EXPECT_TRUE(market.node_up(0));
  EXPECT_EQ(market.evictions(), 0);
  market.stop();
}

TEST(Market, StopHaltsRevocations) {
  sim::Simulator sim;
  RecordingListener listener;
  listener.sim = &sim;
  Market market(sim, config_for(ProcurementPolicy::kHybrid, 1.0), 2, listener);
  market.start();
  sim.run_until(100.0);
  const int evictions = market.evictions();
  market.stop();
  sim.run_until(1000.0);
  EXPECT_EQ(market.evictions(), evictions);
}

}  // namespace
}  // namespace protean::spot
