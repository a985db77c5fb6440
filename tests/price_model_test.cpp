// Tests for the dynamic spot pricing extension.
#include "spot/price_model.h"

#include <gtest/gtest.h>

#include <memory>

#include "sim/simulator.h"
#include "spot/market.h"

namespace protean::spot {
namespace {

PriceModelConfig quick_config() {
  PriceModelConfig config;
  config.horizon = 3600.0;
  config.seed = 5;
  return config;
}

TEST(PriceTrace, MeanNearConfiguredMean) {
  PriceTrace trace(quick_config());
  EXPECT_NEAR(trace.mean_price(), trace.config().mean_spot_hourly,
              trace.config().mean_spot_hourly * 0.35);
}

TEST(PriceTrace, NeverExceedsOnDemand) {
  PriceTrace trace(quick_config());
  for (double p : trace.table()) {
    EXPECT_LE(p, kOnDemandHourly + 1e-9);
    EXPECT_GT(p, 0.0);
  }
}

TEST(PriceTrace, DeterministicPerSeed) {
  PriceTrace a(quick_config());
  PriceTrace b(quick_config());
  EXPECT_EQ(a.table(), b.table());
  auto config = quick_config();
  config.seed = 6;
  PriceTrace c(config);
  EXPECT_NE(a.table(), c.table());
}

TEST(PriceTrace, FractionAboveIsMonotoneInBid) {
  PriceTrace trace(quick_config());
  double prev = 1.0;
  for (double bid = 2.0; bid <= 35.0; bid += 2.0) {
    const double above = trace.fraction_above(bid);
    EXPECT_LE(above, prev + 1e-12);
    prev = above;
  }
  EXPECT_DOUBLE_EQ(trace.fraction_above(1e9), 0.0);
}

TEST(PriceTrace, BidForExposureInvertsFractionAbove) {
  PriceTrace trace(quick_config());
  for (double p_rev : {0.1, 0.354, 0.708}) {
    const double bid = trace.bid_for_exposure(p_rev);
    EXPECT_NEAR(trace.fraction_above(bid), p_rev, 0.02);
  }
}

TEST(PriceTrace, AveragePriceBracketsRange) {
  PriceTrace trace(quick_config());
  const double avg = trace.average_price(100.0, 200.0);
  EXPECT_GE(avg, 0.0);
  EXPECT_LE(avg, trace.peak_price() + 1e-9);
}

TEST(PriceTrace, InvalidConfigsThrow) {
  auto config = quick_config();
  config.mean_spot_hourly = 50.0;  // above on-demand
  EXPECT_THROW(PriceTrace{config}, std::logic_error);
  config = quick_config();
  config.horizon = 0.5;
  EXPECT_THROW(PriceTrace{config}, std::logic_error);
}

// --- Market integration ---------------------------------------------------

struct CountingListener : NodeLifecycleListener {
  int notices = 0, evictions = 0, restores = 0;
  void on_eviction_notice(NodeId, SimTime) override { ++notices; }
  void on_node_evicted(NodeId) override { ++evictions; }
  void on_node_restored(NodeId, VmTier) override { ++restores; }
};

TEST(MarketPriceTrace, HighBidNeverEvicts) {
  sim::Simulator sim;
  CountingListener listener;
  MarketConfig config;
  config.policy = ProcurementPolicy::kHybrid;
  auto trace = std::make_shared<const PriceTrace>(quick_config());
  config.price_trace = trace;
  config.bid = trace->peak_price() + 1.0;
  Market market(sim, config, 4, listener);
  market.start();
  sim.run_until(3000.0);
  EXPECT_EQ(market.evictions(), 0);
  EXPECT_EQ(market.nodes_up(), 4u);
  for (NodeId n = 0; n < 4; ++n) EXPECT_EQ(market.node_tier(n), VmTier::kSpot);
  market.stop();
}

TEST(MarketPriceTrace, LowBidNeverAcquiresSpot) {
  sim::Simulator sim;
  CountingListener listener;
  MarketConfig config;
  config.policy = ProcurementPolicy::kHybrid;
  auto trace = std::make_shared<const PriceTrace>(quick_config());
  config.price_trace = trace;
  config.bid = 0.01;
  Market market(sim, config, 4, listener);
  market.start();
  sim.run_until(1000.0);
  EXPECT_EQ(market.evictions(), 0);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(market.node_tier(n), VmTier::kOnDemand);
  }
  market.stop();
}

TEST(MarketPriceTrace, MidBidEvictsDuringSpikes) {
  sim::Simulator sim;
  CountingListener listener;
  MarketConfig config;
  config.policy = ProcurementPolicy::kHybrid;
  config.revocation_check_interval = 10.0;
  config.eviction_notice = 5.0;
  config.vm_boot_time = 3.0;
  auto trace = std::make_shared<const PriceTrace>(quick_config());
  config.price_trace = trace;
  config.bid = trace->bid_for_exposure(0.3);
  Market market(sim, config, 4, listener);
  market.start();
  sim.run_until(3500.0);
  EXPECT_GT(market.evictions(), 0);
  // The hybrid fallback keeps the fleet alive regardless.
  EXPECT_EQ(market.nodes_up(), 4u);
  market.stop();
}

TEST(MarketPriceTrace, SpotLeaseCostTracksTracePrices) {
  sim::Simulator sim;
  CountingListener listener;
  MarketConfig config;
  config.policy = ProcurementPolicy::kHybrid;
  auto trace = std::make_shared<const PriceTrace>(quick_config());
  config.price_trace = trace;
  config.bid = trace->peak_price() + 1.0;  // all-spot, no evictions
  Market market(sim, config, 1, listener);
  market.start();
  sim.run_until(3600.0);
  const double expected = trace->average_price(0.0, 3600.0);
  EXPECT_NEAR(market.total_cost(), expected, expected * 0.02);
  market.stop();
}

}  // namespace
}  // namespace protean::spot
