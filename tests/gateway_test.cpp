// Tests for gateway batching (Section 4.1).
#include "cluster/gateway.h"

#include <gtest/gtest.h>

#include <vector>

namespace protean::cluster {
namespace {

using workload::Batch;
using workload::ModelCatalog;

struct Fixture {
  sim::Simulator sim;
  ClusterConfig config;
  std::vector<Batch> dispatched;
  std::unique_ptr<Gateway> gateway;

  Fixture() {
    gateway = std::make_unique<Gateway>(
        sim, config, [this](Batch&& b) { dispatched.push_back(std::move(b)); });
  }
};

const workload::ModelProfile& resnet() {
  return ModelCatalog::instance().by_name("ResNet 50");  // batch 128
}
const workload::ModelProfile& albert() {
  return ModelCatalog::instance().by_name("ALBERT");  // batch 4
}

TEST(Gateway, SealsFullBatchImmediately) {
  Fixture f;
  f.gateway->on_arrivals(resnet(), true, 128, 0.0, 0.01);
  ASSERT_EQ(f.dispatched.size(), 1u);
  EXPECT_EQ(f.dispatched[0].count, 128);
  EXPECT_TRUE(f.dispatched[0].strict);
  EXPECT_EQ(f.dispatched[0].model, &resnet());
}

TEST(Gateway, AccumulatesAcrossArrivalWindows) {
  Fixture f;
  f.gateway->on_arrivals(resnet(), true, 100, 0.0, 0.005);
  EXPECT_TRUE(f.dispatched.empty());
  f.gateway->on_arrivals(resnet(), true, 28, 0.005, 0.010);
  ASSERT_EQ(f.dispatched.size(), 1u);
  EXPECT_EQ(f.dispatched[0].count, 128);
}

TEST(Gateway, OverflowRollsIntoNextBatch) {
  Fixture f;
  f.gateway->on_arrivals(resnet(), true, 300, 0.0, 0.01);
  ASSERT_EQ(f.dispatched.size(), 2u);
  EXPECT_EQ(f.dispatched[0].count, 128);
  EXPECT_EQ(f.dispatched[1].count, 128);
  f.gateway->flush_all();
  ASSERT_EQ(f.dispatched.size(), 3u);
  EXPECT_EQ(f.dispatched[2].count, 44);
}

TEST(Gateway, TimeoutFlushesPartialBatch) {
  Fixture f;
  const Duration timeout = Gateway::timeout_for(resnet(), f.config);
  f.sim.schedule_at(0.0, [&] { f.gateway->on_arrivals(resnet(), true, 10, 0.0, 0.005); });
  f.sim.run_until(timeout + 0.02);
  ASSERT_EQ(f.dispatched.size(), 1u);
  EXPECT_EQ(f.dispatched[0].count, 10);
  // Partial flush happens within ~timeout + one flush-check period.
  EXPECT_LE(f.dispatched[0].formed_at,
            timeout + Gateway::kFlushCheck + 1e-9);
}

TEST(Gateway, TimeoutIsSloAware) {
  ClusterConfig config;
  // ResNet 50: 0.45 * 3 * 195 ms ≈ 263 ms, inside the clamp band.
  EXPECT_NEAR(Gateway::timeout_for(resnet(), config), 0.263, 0.005);
  // A light model clamps to the floor; a heavy multiplier to the cap.
  const auto& shuffle = workload::ModelCatalog::instance().by_name("ShuffleNet V2");
  EXPECT_DOUBLE_EQ(Gateway::timeout_for(shuffle, config),
                   std::max(Gateway::kTimeoutFloor,
                            0.45 * 3.0 * shuffle.solo_time_7g));
  config.slo_multiplier = 30.0;
  EXPECT_DOUBLE_EQ(Gateway::timeout_for(resnet(), config),
                   config.batch_timeout);
}

TEST(Gateway, StrictAndBeOfSameModelBatchSeparately) {
  Fixture f;
  f.gateway->on_arrivals(resnet(), true, 100, 0.0, 0.005);
  f.gateway->on_arrivals(resnet(), false, 100, 0.0, 0.005);
  EXPECT_TRUE(f.dispatched.empty());
  f.gateway->on_arrivals(resnet(), true, 28, 0.005, 0.01);
  ASSERT_EQ(f.dispatched.size(), 1u);
  EXPECT_TRUE(f.dispatched[0].strict);
}

TEST(Gateway, DifferentModelsBatchSeparately) {
  Fixture f;
  f.gateway->on_arrivals(albert(), true, 3, 0.0, 0.005);
  EXPECT_TRUE(f.dispatched.empty());
  f.gateway->on_arrivals(albert(), true, 1, 0.005, 0.01);
  ASSERT_EQ(f.dispatched.size(), 1u);
  EXPECT_EQ(f.dispatched[0].count, 4);
  EXPECT_EQ(f.dispatched[0].model, &albert());
}

TEST(Gateway, ArrivalSpanCoversConsumedGrains) {
  Fixture f;
  f.gateway->on_arrivals(resnet(), true, 64, 0.0, 0.005);
  f.gateway->on_arrivals(resnet(), true, 64, 0.010, 0.015);
  ASSERT_EQ(f.dispatched.size(), 1u);
  EXPECT_DOUBLE_EQ(f.dispatched[0].first_arrival, 0.0);
  EXPECT_GE(f.dispatched[0].last_arrival, 0.010);
  EXPECT_LE(f.dispatched[0].last_arrival, 0.015);
}

TEST(Gateway, PartialGrainInterpolatesLastArrival) {
  Fixture f;
  f.gateway->on_arrivals(resnet(), true, 256, 0.0, 0.010);
  ASSERT_EQ(f.dispatched.size(), 2u);
  // First batch consumes half the grain: last arrival ≈ 5 ms.
  EXPECT_NEAR(f.dispatched[0].last_arrival, 0.005, 1e-9);
  // Second batch starts where the first stopped.
  EXPECT_NEAR(f.dispatched[1].first_arrival, 0.005, 1e-9);
}

TEST(Gateway, StrictBatchesCarrySlo) {
  Fixture f;
  f.config.slo_multiplier = 3.0;
  f.gateway->on_arrivals(resnet(), true, 128, 0.0, 0.01);
  f.gateway->on_arrivals(resnet(), false, 128, 0.0, 0.01);
  ASSERT_EQ(f.dispatched.size(), 2u);
  EXPECT_NEAR(f.dispatched[0].slo, 3.0 * resnet().solo_time_7g, 1e-9);
  EXPECT_EQ(f.dispatched[1].slo, kNeverTime);
}

TEST(Gateway, FlushAllDrainsEverything) {
  Fixture f;
  f.gateway->on_arrivals(resnet(), true, 5, 0.0, 0.005);
  f.gateway->on_arrivals(albert(), false, 2, 0.0, 0.005);
  f.gateway->flush_all();
  EXPECT_EQ(f.dispatched.size(), 2u);
  EXPECT_EQ(f.gateway->partial_batches(), 2u);
}

TEST(Gateway, CountersTrackVolume) {
  Fixture f;
  f.gateway->on_arrivals(resnet(), true, 128, 0.0, 0.01);
  f.gateway->on_arrivals(resnet(), true, 5, 0.01, 0.02);
  f.gateway->flush_all();
  EXPECT_EQ(f.gateway->requests_seen(), 133u);
  EXPECT_EQ(f.gateway->batches_formed(), 2u);
  EXPECT_EQ(f.gateway->partial_batches(), 1u);
}

TEST(Gateway, TimeoutMeasuresFromOldestRequest) {
  // The hold timer is anchored at the *oldest* pending request: a late
  // trickle of arrivals must not keep resetting the clock.
  Fixture f;
  const Duration timeout = Gateway::timeout_for(resnet(), f.config);
  f.sim.schedule_at(0.0, [&] {
    f.gateway->on_arrivals(resnet(), true, 10, 0.0, 0.005);
  });
  f.sim.schedule_at(timeout - 0.01, [&] {
    f.gateway->on_arrivals(resnet(), true, 10, timeout - 0.01, timeout);
  });
  f.sim.run_until(timeout + Gateway::kFlushCheck + 0.01);
  ASSERT_EQ(f.dispatched.size(), 1u);
  EXPECT_EQ(f.dispatched[0].count, 20);
  // Sealed within one flush-check period of the oldest request's deadline,
  // not `timeout` after the second burst.
  EXPECT_LE(f.dispatched[0].formed_at,
            timeout + Gateway::kFlushCheck + 1e-9);
}

TEST(Gateway, SurgeNeverWaitsBehindFullBatch) {
  // A partial batch is pending; a surge arrives that completes it. The full
  // batch must seal at arrival time — the surge never waits out the timer —
  // and it counts as a full batch, not a timeout flush.
  Fixture f;
  f.sim.schedule_at(0.0, [&] {
    f.gateway->on_arrivals(resnet(), true, 100, 0.0, 0.005);
  });
  f.sim.schedule_at(0.02, [&] {
    f.gateway->on_arrivals(resnet(), true, 156, 0.02, 0.025);
  });
  f.sim.run_until(0.05);  // well inside the ~263 ms ResNet hold window
  // 100 + 156 = two full batches: both seal at the surge's arrival, with
  // nothing held back to wait out the hold timer.
  ASSERT_EQ(f.dispatched.size(), 2u);
  for (const auto& b : f.dispatched) {
    EXPECT_EQ(b.count, 128);
    EXPECT_LE(b.formed_at, 0.02 + 1e-9);
  }
  EXPECT_EQ(f.gateway->partial_batches(), 0u);
}

TEST(Gateway, HorizonDrainCountsPartialBatches) {
  // End-of-experiment drain: whatever is still pending at the horizon goes
  // out as partial batches, exactly once (flush_all is idempotent).
  Fixture f;
  f.sim.schedule_at(0.0, [&] {
    f.gateway->on_arrivals(resnet(), true, 30, 0.0, 0.005);
    f.gateway->on_arrivals(resnet(), false, 7, 0.0, 0.005);
    f.gateway->on_arrivals(albert(), true, 1, 0.0, 0.005);
  });
  f.sim.run_until(0.05);  // horizon ends before any hold timer fires
  ASSERT_TRUE(f.dispatched.empty());
  f.gateway->flush_all();
  EXPECT_EQ(f.dispatched.size(), 3u);
  EXPECT_EQ(f.gateway->partial_batches(), 3u);
  EXPECT_EQ(f.gateway->batches_formed(), 3u);
  int total = 0;
  for (const auto& b : f.dispatched) total += b.count;
  EXPECT_EQ(total, 38);
  f.gateway->flush_all();  // nothing left: no new batches, no double count
  EXPECT_EQ(f.dispatched.size(), 3u);
  EXPECT_EQ(f.gateway->partial_batches(), 3u);
}

TEST(Gateway, BatchIdsAreUnique) {
  Fixture f;
  f.gateway->on_arrivals(resnet(), true, 384, 0.0, 0.01);
  ASSERT_EQ(f.dispatched.size(), 3u);
  EXPECT_NE(f.dispatched[0].id, f.dispatched[1].id);
  EXPECT_NE(f.dispatched[1].id, f.dispatched[2].id);
}

}  // namespace
}  // namespace protean::cluster
