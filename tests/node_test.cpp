// Tests for the worker node: queueing, reordering, container lifecycle,
// eviction/restore.
#include "cluster/node.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "metrics/collector.h"
#include "sched/baselines.h"

namespace protean::cluster {
namespace {

using workload::Batch;
using workload::ModelCatalog;
using workload::ModelProfile;

const ModelProfile& resnet() {
  return ModelCatalog::instance().by_name("ResNet 50");
}
const ModelProfile& mobilenet() {
  return ModelCatalog::instance().by_name("MobileNet");
}

Batch make_batch(const ModelProfile& model, bool strict, SimTime arrival,
                 BatchId id = 0) {
  Batch b;
  b.id = id;
  b.model = &model;
  b.strict = strict;
  b.count = model.batch_size;
  b.first_arrival = arrival;
  b.last_arrival = arrival + 0.05;
  b.formed_at = arrival + 0.05;
  b.slo = strict ? model.slo_deadline() : kNeverTime;
  return b;
}

struct Fixture {
  sim::Simulator sim;
  ClusterConfig config;
  sched::InflessLlamaScheduler scheduler;  // permissive MPS on 7g
  metrics::Collector collector;
  std::unique_ptr<WorkerNode> node;

  explicit Fixture(Duration cold_start = 0.0) {
    config.cold_start = cold_start;
    node = std::make_unique<WorkerNode>(sim, 0, config, scheduler, collector);
  }
};

TEST(WorkerNode, ServesABatchEndToEnd) {
  Fixture f;
  f.node->prewarm(resnet(), 1);
  f.node->enqueue(make_batch(resnet(), true, 0.0));
  f.sim.run_until(f.sim.now() + 30.0);
  EXPECT_EQ(f.node->batches_served(), 1u);
  EXPECT_EQ(f.collector.strict_completed(),
            static_cast<std::uint64_t>(resnet().batch_size));
  EXPECT_EQ(f.node->cold_starts(), 0u);
}

TEST(WorkerNode, ColdStartDelaysFirstBatch) {
  Fixture f(/*cold_start=*/2.0);
  f.node->enqueue(make_batch(resnet(), true, 0.0));
  f.sim.run_until(f.sim.now() + 30.0);
  EXPECT_EQ(f.node->cold_starts(), 1u);
  ASSERT_EQ(f.collector.batch_records().size(), 1u);
  ASSERT_EQ(f.collector.batch_records().lanes.size(), 1u);
  EXPECT_NEAR(f.collector.batch_records().lanes[0].cold, 2.0, 1e-9);
  // Completion = cold start + solo exec.
  EXPECT_GE(f.sim.now(), 2.0 + resnet().solo_time_7g - 1e-9);
}

TEST(WorkerNode, WarmContainerReusedAcrossBatches) {
  Fixture f(/*cold_start=*/2.0);
  f.node->prewarm(resnet(), 1);
  f.node->enqueue(make_batch(resnet(), true, 0.0));
  f.sim.run_until(f.sim.now() + 30.0);
  f.node->enqueue(make_batch(resnet(), true, f.sim.now()));
  f.sim.run_until(f.sim.now() + 30.0);
  EXPECT_EQ(f.node->batches_served(), 2u);
  EXPECT_EQ(f.node->cold_starts(), 0u);
}

TEST(WorkerNode, ConcurrentSameModelBatchesWaitForSpare) {
  Fixture f(/*cold_start=*/2.0);
  f.node->prewarm(resnet(), 1);
  // Two batches at once, one container: the second waits while a spare
  // boots in the background (reactive scale-up) or the first frees.
  f.node->enqueue(make_batch(resnet(), true, 0.0, 1));
  f.node->enqueue(make_batch(resnet(), true, 0.0, 2));
  f.sim.run_until(f.sim.now() + 30.0);
  EXPECT_EQ(f.node->batches_served(), 2u);
  EXPECT_EQ(f.node->cold_starts(), 1u);  // the background spare
  // Neither batch paid the cold start on its critical path.
  ASSERT_EQ(f.collector.batch_records().lanes.size(), 2u);
  for (const auto& lanes : f.collector.batch_records().lanes) {
    EXPECT_DOUBLE_EQ(lanes.cold, 0.0);
  }
}

TEST(WorkerNode, KeepAliveZeroColdStartsEveryBatch) {
  Fixture f(/*cold_start=*/1.0);
  f.config.keep_alive = 0.0;
  f.node->enqueue(make_batch(resnet(), true, 0.0));
  f.sim.run_until(f.sim.now() + 30.0);
  f.node->enqueue(make_batch(resnet(), true, f.sim.now()));
  f.sim.run_until(f.sim.now() + 30.0);
  EXPECT_EQ(f.node->batches_served(), 2u);
  EXPECT_GE(f.node->cold_starts(), 2u);
}

TEST(WorkerNode, ReaperTerminatesIdleContainers) {
  Fixture f;
  f.config.keep_alive = 10.0;
  f.node->prewarm(mobilenet(), 3);
  EXPECT_EQ(f.node->warm_containers(), 3);
  f.sim.run_until(f.config.keep_alive + 2 * f.config.reaper_interval);
  EXPECT_EQ(f.node->warm_containers(), 0);
}

// ---- container pools: one per model, LIFO reuse, oldest-first expiry ----

const ModelProfile& model_named(const char* name) {
  return ModelCatalog::instance().by_name(name);
}

TEST(ContainerPool, WarmReuseTakesTheMostRecentlyIdledContainer) {
  Fixture f;
  f.config.keep_alive = 100.0;
  f.node->prewarm(resnet(), 1);  // idle since t=0
  f.sim.run_until(50.0);
  f.node->prewarm(resnet(), 1);  // idle since t=50
  f.node->enqueue(make_batch(resnet(), true, f.sim.now()));
  f.sim.run_until(60.0);
  ASSERT_EQ(f.node->batches_served(), 1u);
  EXPECT_EQ(f.node->cold_starts(), 0u);
  // The batch took the t=50 container and returned it near t=50.2, so the
  // t=0 one is still the oldest and expires on the first reap past t=100
  // (reaps run every 30 s); reusing the oldest instead would leave two.
  f.sim.run_until(125.0);
  EXPECT_EQ(f.node->warm_count(resnet()), 1);
  f.sim.run_until(200.0);
  EXPECT_EQ(f.node->warm_count(resnet()), 0);
}

TEST(ContainerPool, ReaperExpiresTheOldestContainersFirst) {
  Fixture f;
  f.config.keep_alive = 100.0;
  const ModelProfile& a = mobilenet();
  const ModelProfile& b = resnet();
  const ModelProfile& c = model_named("GoogleNet");
  f.node->prewarm(a, 2);
  f.node->prewarm(c, 1);
  f.sim.run_until(50.0);
  f.node->prewarm(a, 1);
  f.node->prewarm(b, 2);
  EXPECT_EQ(f.node->warm_containers(), 6);
  f.sim.run_until(125.0);  // reaped at t=120: everything idle since t=0
  EXPECT_EQ(f.node->warm_count(a), 1);
  EXPECT_EQ(f.node->warm_count(b), 2);
  EXPECT_EQ(f.node->warm_count(c), 0);
  EXPECT_EQ(f.node->warm_containers(), 3);
  f.sim.run_until(200.0);  // reaped at t=180: the t=50 ones too
  EXPECT_EQ(f.node->warm_containers(), 0);
}

TEST(ContainerPool, EvictClearsEveryPool) {
  Fixture f(/*cold_start=*/1.0);
  const ModelProfile* models[] = {&resnet(), &mobilenet(),
                                  &model_named("GoogleNet")};
  for (const ModelProfile* m : models) f.node->prewarm(*m, 2);
  EXPECT_EQ(f.node->warm_containers(), 6);
  f.node->evict();
  EXPECT_EQ(f.node->warm_containers(), 0);
  for (const ModelProfile* m : models) {
    EXPECT_EQ(f.node->warm_count(*m), 0) << m->name;
    EXPECT_TRUE(f.node->container_available(*m)) << m->name;
  }
  f.node->restore();
  EXPECT_EQ(f.node->warm_containers(), 0);
  // The replacement VM starts cold: the first batch boots a container.
  f.node->enqueue(make_batch(mobilenet(), true, f.sim.now()));
  f.sim.run_until(f.sim.now() + 30.0);
  EXPECT_EQ(f.node->batches_served(), 1u);
  EXPECT_EQ(f.node->cold_starts(), 1u);
}

TEST(ContainerPool, WarmCountAndBoostWarmAcrossModels) {
  Fixture f(/*cold_start=*/2.0);
  const ModelProfile& a = resnet();
  const ModelProfile& b = mobilenet();
  const ModelProfile& c = model_named("GoogleNet");
  const ModelProfile& d = model_named("ResNet 18");
  f.node->prewarm(a, 1);
  f.node->prewarm(b, 2);
  f.node->prewarm(c, 3);
  EXPECT_EQ(f.node->warm_count(a), 1);
  EXPECT_EQ(f.node->warm_count(b), 2);
  EXPECT_EQ(f.node->warm_count(c), 3);
  EXPECT_EQ(f.node->warm_count(d), 0);  // never seen: no pool
  EXPECT_EQ(f.node->warm_containers(), 6);

  EXPECT_EQ(f.node->boost_warm(a, 4), 3);
  EXPECT_EQ(f.node->boost_warm(b, 2), 0);  // already at the target
  EXPECT_EQ(f.node->boost_warm(d, 2), 2);  // a fourth pool
  EXPECT_EQ(f.node->boost_warm(a, 4), 0);  // booting ones count
  EXPECT_EQ(f.node->proactive_boots(), 5u);
  EXPECT_EQ(f.node->cold_starts(), 0u);
  EXPECT_EQ(f.node->warm_count(a), 1);  // still booting
  f.sim.run_until(3.0);
  EXPECT_EQ(f.node->warm_count(a), 4);
  EXPECT_EQ(f.node->warm_count(b), 2);
  EXPECT_EQ(f.node->warm_count(c), 3);
  EXPECT_EQ(f.node->warm_count(d), 2);
  EXPECT_EQ(f.node->warm_containers(), 11);
}

TEST(ContainerPool, BoostWarmCountsBusyContainersAndSkipsADownNode) {
  Fixture f(/*cold_start=*/2.0);
  f.node->prewarm(resnet(), 1);
  f.node->prewarm(mobilenet(), 1);
  f.node->enqueue(make_batch(resnet(), true, 0.0));
  ASSERT_EQ(f.node->running(), 1u);
  EXPECT_EQ(f.node->warm_count(resnet()), 0);
  // One busy container already counts toward the target of two.
  EXPECT_EQ(f.node->boost_warm(resnet(), 2), 1);
  EXPECT_EQ(f.node->boost_warm(mobilenet(), 3), 2);
  f.sim.run_until(30.0);
  EXPECT_EQ(f.node->warm_count(resnet()), 2);
  EXPECT_EQ(f.node->warm_count(mobilenet()), 3);
  f.node->evict();
  EXPECT_EQ(f.node->boost_warm(resnet(), 2), 0);
  EXPECT_EQ(f.node->proactive_boots(), 3u);
}

TEST(WorkerNode, BeMemQueuedSumsBestEffortOnly) {
  Fixture f;
  // No containers and a full slice would be needed to keep them queued;
  // use a draining GPU trick instead: fill the slice first.
  f.node->prewarm(resnet(), 8);
  f.node->prewarm(mobilenet(), 8);
  // Occupy queue by not running: mark gpu slices non-accepting.
  for (auto* slice : f.node->gpu().slices()) slice->set_accepting(false);
  f.node->enqueue(make_batch(resnet(), true, 0.0));
  f.node->enqueue(make_batch(mobilenet(), false, 0.0));
  f.node->enqueue(make_batch(mobilenet(), false, 0.0));
  EXPECT_DOUBLE_EQ(f.node->be_mem_queued(), 2 * mobilenet().mem_gb);
  EXPECT_EQ(f.node->be_queued(), 2u);
  EXPECT_EQ(f.node->queued(), 3u);
}

TEST(WorkerNode, BeFbrDensityAveragesOverQueuedBeBatches) {
  Fixture f;
  EXPECT_EQ(f.node->be_fbr_density(), 0.0);
  for (auto* slice : f.node->gpu().slices()) slice->set_accepting(false);
  f.node->enqueue(make_batch(mobilenet(), false, 0.0));
  f.node->enqueue(make_batch(resnet(), true, 0.0));  // ignored
  EXPECT_NEAR(f.node->be_fbr_density(), mobilenet().fbr / mobilenet().mem_gb,
              1e-9);
}

// The memoized BE queue sums against a fresh walk of the queue, in queue
// order, compared exactly. Each call also refreshes the memo, so the next
// mutation must invalidate it.
void expect_sums_match_a_fresh_walk(const WorkerNode& node) {
  WorkerNode::BeQueueSums walk;
  for (const Batch& b : node.queue()) {
    if (b.strict) continue;
    walk.mem += b.model->mem_gb;
    ++walk.count;
    walk.fbr += b.model->fbr;
    if (walk.max_mem_model == nullptr || b.model->mem_gb > walk.max_mem) {
      walk.max_mem = b.model->mem_gb;
      walk.max_mem_model = b.model;
    }
  }
  const WorkerNode::BeQueueSums& memo = node.be_queue_sums();
  EXPECT_EQ(memo.mem, walk.mem);
  EXPECT_EQ(memo.count, walk.count);
  EXPECT_EQ(memo.fbr, walk.fbr);
  EXPECT_EQ(memo.max_mem, walk.max_mem);
  EXPECT_EQ(memo.max_mem_model, walk.max_mem_model);
  EXPECT_EQ(node.be_mem_queued(), walk.mem);
  EXPECT_EQ(node.be_queued(), walk.count);
  EXPECT_EQ(node.be_fbr_density(),
            walk.mem <= 0.0 ? 0.0 : walk.fbr / walk.mem);
}

TEST(WorkerNode, BeQueueSumsFollowEveryQueueMutation) {
  // SmartMpsMig reorders strict batches ahead of BE ones, so strict
  // enqueues insert mid-queue.
  sim::Simulator sim;
  ClusterConfig config;
  config.cold_start = 0.0;
  sched::SmartMpsMigScheduler scheduler;
  metrics::Collector collector;
  WorkerNode node(sim, 0, config, scheduler, collector);
  std::vector<Batch> redistributed;
  node.set_redistribute(
      [&](Batch&& b) { redistributed.push_back(std::move(b)); });
  const ModelProfile& vgg = ModelCatalog::instance().by_name("VGG 19");
  const auto hold = [&](bool accepting) {
    for (auto* slice : node.gpu().slices()) slice->set_accepting(accepting);
  };
  const auto fill = [&] {
    node.enqueue(make_batch(mobilenet(), false, sim.now(), 1));
    expect_sums_match_a_fresh_walk(node);
    node.enqueue(make_batch(vgg, false, sim.now(), 2));
    expect_sums_match_a_fresh_walk(node);
    node.enqueue(make_batch(resnet(), true, sim.now(), 3));  // jumps ahead
    expect_sums_match_a_fresh_walk(node);
    node.enqueue(make_batch(vgg, false, sim.now(), 4));  // ties the max
    expect_sums_match_a_fresh_walk(node);
    node.enqueue(make_batch(resnet(), false, sim.now(), 5));
    expect_sums_match_a_fresh_walk(node);
  };
  expect_sums_match_a_fresh_walk(node);

  // Enqueue, then dispatch: the batches start once the slices accept.
  hold(false);
  fill();
  ASSERT_EQ(node.queued(), 5u);
  ASSERT_EQ(node.queue().front().id, 3u);
  EXPECT_EQ(node.be_queue_sums().max_mem_model, &vgg);
  node.prewarm(resnet(), 2);
  node.prewarm(mobilenet(), 1);
  node.prewarm(vgg, 2);
  hold(true);
  node.try_dispatch();
  EXPECT_LT(node.queued(), 5u);
  expect_sums_match_a_fresh_walk(node);
  sim.run_until(sim.now() + 30.0);
  expect_sums_match_a_fresh_walk(node);

  // take_queue.
  hold(false);
  fill();
  EXPECT_EQ(node.take_queue().size(), 5u);
  expect_sums_match_a_fresh_walk(node);

  // Evict and restore.
  fill();
  node.evict();
  EXPECT_EQ(node.queued(), 0u);
  expect_sums_match_a_fresh_walk(node);
  node.restore();
  expect_sums_match_a_fresh_walk(node);

  // Reconfiguration: a MIG drain hands the queue back for redistribution.
  hold(false);
  fill();
  const gpu::Geometry target = gpu::Geometry::g3_3();
  ASSERT_NE(node.gpu().geometry(), target);
  EXPECT_TRUE(node.begin_reconfigure(target));
  EXPECT_EQ(redistributed.size(), 5u);
  EXPECT_EQ(node.queued(), 0u);
  expect_sums_match_a_fresh_walk(node);
}

TEST(WorkerNode, TakeQueueFlushesPendingBatches) {
  Fixture f;
  for (auto* slice : f.node->gpu().slices()) slice->set_accepting(false);
  f.node->enqueue(make_batch(resnet(), true, 0.0));
  f.node->enqueue(make_batch(mobilenet(), false, 0.0));
  auto flushed = f.node->take_queue();
  EXPECT_EQ(flushed.size(), 2u);
  EXPECT_EQ(f.node->queued(), 0u);
  EXPECT_DOUBLE_EQ(f.node->outstanding_work(), 0.0);
}

TEST(WorkerNode, EvictDropsRunningWorkAndRestoreRecovers) {
  Fixture f;
  f.node->prewarm(resnet(), 1);
  f.node->enqueue(make_batch(resnet(), true, 0.0));
  EXPECT_EQ(f.node->running(), 1u);
  auto flushed = f.node->evict();
  EXPECT_TRUE(flushed.empty());
  EXPECT_FALSE(f.node->up());
  EXPECT_EQ(f.node->dropped_jobs(), 1u);
  f.sim.run_until(f.sim.now() + 30.0);
  EXPECT_EQ(f.node->batches_served(), 0u);

  f.node->restore();
  EXPECT_TRUE(f.node->up());
  EXPECT_EQ(f.node->warm_containers(), 0);  // new VM: cold pool
  f.node->enqueue(make_batch(resnet(), true, f.sim.now()));
  f.sim.run_until(f.sim.now() + 30.0);
  EXPECT_EQ(f.node->batches_served(), 1u);
}

TEST(WorkerNode, EvictReleasesInFlightSlotsWithoutAFaultLayer) {
  // Without a lost-batch handler, jobs on the GPU at eviction die with it
  // and never run their completion callbacks; their in-flight table slots
  // must be released by evict() itself, not leak one per eviction.
  Fixture f;
  const std::size_t kBatches = 3;
  std::size_t peak_slots = 0;
  for (int round = 0; round < 20; ++round) {
    f.node->prewarm(resnet(), static_cast<int>(kBatches));
    for (std::size_t i = 0; i < kBatches; ++i) {
      f.node->enqueue(make_batch(resnet(), true, f.sim.now()));
    }
    ASSERT_EQ(f.node->running(), kBatches);
    ASSERT_EQ(f.node->in_flight(), kBatches);
    peak_slots = std::max(peak_slots, f.node->in_flight_slots());
    f.node->evict();
    EXPECT_EQ(f.node->in_flight(), 0u);
    EXPECT_EQ(f.node->in_flight_slots(), 0u);
    f.sim.run_until(f.sim.now() + 1.0);
    f.node->restore();
  }
  EXPECT_EQ(peak_slots, kBatches);
  EXPECT_EQ(f.node->dropped_jobs(), 20 * kBatches);
  EXPECT_EQ(f.node->batches_served(), 0u);
  // The node still serves normally afterwards, and the served batch's slot
  // goes back to the free list.
  f.node->prewarm(resnet(), 1);
  f.node->enqueue(make_batch(resnet(), true, f.sim.now()));
  EXPECT_EQ(f.node->in_flight(), 1u);
  f.sim.run_until(f.sim.now() + 30.0);
  EXPECT_EQ(f.node->batches_served(), 1u);
  EXPECT_EQ(f.node->in_flight(), 0u);
  EXPECT_EQ(f.node->in_flight_slots(), 1u);
}

TEST(WorkerNode, EvictionDuringColdBootIsSafe) {
  Fixture f(/*cold_start=*/5.0);
  f.node->enqueue(make_batch(resnet(), true, 0.0));
  f.sim.run_until(1.0);  // container still booting, memory reserved
  f.node->evict();
  f.node->restore();
  f.sim.run_until(f.sim.now() + 30.0);  // orphaned boot continuation must not fire
  EXPECT_EQ(f.node->batches_served(), 0u);
}

TEST(WorkerNode, EccDuringColdBootOrphansPinWithoutLeaking) {
  // Regression: an ECC slice failure mid-boot destroys the slice while the
  // booting container still holds a cache pin and a memory reservation.
  // The pin must be accounted as orphaned (not a Debug-check crash), the
  // reservation must die with the slice, and the batch must still be served
  // on a surviving slice.
  sim::Simulator sim;
  ClusterConfig config;
  config.cold_start = 5.0;
  config.memcache.enabled = true;
  config.memcache.capacity_gb = 16.0;
  sched::SmartMpsMigScheduler scheduler;  // static (4g,3g): two slices
  metrics::Collector collector;
  WorkerNode node(sim, 0, config, scheduler, collector);
  std::vector<Batch> redistributed;
  node.set_redistribute([&](Batch&& b) { redistributed.push_back(std::move(b)); });
  ASSERT_NE(node.cache(), nullptr);

  node.enqueue(make_batch(resnet(), true, 0.0));
  sim.run_until(1.0);  // booting on the largest slice, pin + reservation held
  ASSERT_TRUE(node.inject_ecc(/*selector=*/0.0));  // kill the 4g slice

  EXPECT_EQ(node.cache()->orphaned_pins(), 1u);
  for (const gpu::Slice* slice :
       const_cast<const gpu::Gpu&>(node.gpu()).slices()) {
    EXPECT_EQ(slice->reservations(), 0);
  }
  sim.run_until(sim.now() + 60.0);
  // The boot continuation found its slice gone, requeued the batch, and a
  // surviving slice served it; nothing was stranded or double-counted.
  EXPECT_EQ(node.batches_served() + redistributed.size(), 1u);
  EXPECT_EQ(node.lost_batches(), 0u);
  for (const gpu::Slice* slice :
       const_cast<const gpu::Gpu&>(node.gpu()).slices()) {
    EXPECT_EQ(slice->reservations(), 0);
    EXPECT_EQ(slice->running_jobs(), 0u);
  }
}

TEST(WorkerNode, OutstandingWorkTracksQueueAndRunning) {
  Fixture f;
  f.node->prewarm(resnet(), 2);
  f.node->enqueue(make_batch(resnet(), true, 0.0));
  EXPECT_NEAR(f.node->outstanding_work(), resnet().solo_time_7g, 1e-9);
  f.sim.run_until(f.sim.now() + 30.0);
  EXPECT_NEAR(f.node->outstanding_work(), 0.0, 1e-9);
}

TEST(WorkerNode, EstimatedFreeMemorySubtractsQueuedDemand) {
  Fixture f;
  for (auto* slice : f.node->gpu().slices()) slice->set_accepting(false);
  MemGb total = 0.0;
  for (const auto* slice : f.node->gpu().slices()) {
    total += slice->available_memory();
  }
  EXPECT_DOUBLE_EQ(f.node->estimated_free_memory(), total);
  // Queued batches haven't claimed slice memory yet but will: the estimate
  // debits them up front so the dispatcher doesn't over-commit the node.
  f.node->enqueue(make_batch(resnet(), true, 0.0));
  f.node->enqueue(make_batch(mobilenet(), false, 0.0));
  EXPECT_DOUBLE_EQ(f.node->estimated_free_memory(),
                   total - resnet().mem_gb - mobilenet().mem_gb);
}

TEST(WorkerNode, TakeBeDemandEstimateFollowsLittlesLaw) {
  Fixture f;
  for (auto* slice : f.node->gpu().slices()) slice->set_accepting(false);
  // One full BE batch enqueued at t=0 contributes mem x solo of
  // memory-service demand (fill = 1 => the (0.5 + 0.5*fill) midpoint and
  // the work fraction are both 1).
  f.node->enqueue(make_batch(mobilenet(), false, 0.0));
  f.sim.run_until(2.0);
  const MemGb expected = mobilenet().mem_gb * mobilenet().solo_time_7g / 2.0;
  EXPECT_NEAR(f.node->take_be_demand_estimate(), expected, 1e-9);
  // The call resets the window: an immediate second read sees no demand.
  EXPECT_DOUBLE_EQ(f.node->take_be_demand_estimate(), 0.0);
}

TEST(WorkerNode, TakeBeDemandEstimateIgnoresStrictBatches) {
  Fixture f;
  for (auto* slice : f.node->gpu().slices()) slice->set_accepting(false);
  f.node->enqueue(make_batch(resnet(), true, 0.0));
  f.sim.run_until(2.0);
  EXPECT_DOUBLE_EQ(f.node->take_be_demand_estimate(), 0.0);
}

TEST(WorkerNode, EstimatedPressureCountsResidentsAndQueue) {
  Fixture f;
  f.node->prewarm(resnet(), 4);
  f.node->enqueue(make_batch(resnet(), true, 0.0));
  const double one = f.node->estimated_pressure();
  EXPECT_NEAR(one, std::max(resnet().fbr, resnet().sm_req), 1e-9);
  f.sim.run_until(f.sim.now() + 30.0);
  EXPECT_NEAR(f.node->estimated_pressure(), 0.0, 1e-9);
}

class ReorderFixture {
 public:
  sim::Simulator sim;
  ClusterConfig config;
  sched::SmartMpsMigScheduler scheduler;  // reorders strict first
  metrics::Collector collector;
  std::unique_ptr<WorkerNode> node;

  ReorderFixture() {
    node = std::make_unique<WorkerNode>(sim, 0, config, scheduler, collector);
    for (auto* slice : node->gpu().slices()) slice->set_accepting(false);
  }
};

TEST(WorkerNode, ReorderPutsStrictAheadOfBe) {
  ReorderFixture f;
  f.node->enqueue(make_batch(mobilenet(), false, 0.0, 1));
  f.node->enqueue(make_batch(mobilenet(), false, 0.0, 2));
  f.node->enqueue(make_batch(resnet(), true, 0.0, 3));
  f.node->enqueue(make_batch(resnet(), true, 0.0, 4));
  const auto& q = f.node->queue();
  ASSERT_EQ(q.size(), 4u);
  EXPECT_EQ(q[0].id, 3u);
  EXPECT_EQ(q[1].id, 4u);  // strict stay FIFO among themselves
  EXPECT_EQ(q[2].id, 1u);
  EXPECT_EQ(q[3].id, 2u);
}

TEST(WorkerNode, NoOpReconfigureKeepsQueuedBatches) {
  // Regression: a begin_reconfigure into the *current* geometry completes
  // without downtime, so the queue must not be redistributed away.
  Fixture f;
  std::size_t redistributed = 0;
  f.node->set_redistribute([&](workload::Batch&&) { ++redistributed; });
  for (auto* slice : f.node->gpu().slices()) slice->set_accepting(false);
  f.node->enqueue(make_batch(resnet(), true, 0.0, 1));
  f.node->enqueue(make_batch(resnet(), true, 0.0, 2));
  ASSERT_EQ(f.node->queued(), 2u);
  EXPECT_TRUE(f.node->begin_reconfigure(f.node->gpu().geometry()));
  EXPECT_FALSE(f.node->gpu().reconfiguring());
  EXPECT_EQ(f.node->queued(), 2u);
  EXPECT_EQ(redistributed, 0u);
}

TEST(WorkerNode, SoftReconfigureKeepsQueuedBatchesAndServing) {
  // A soft-sliced node repartitions in place: no drain, so queued work
  // stays put and is served by the new slices.
  Fixture f;
  f.config.softgpu = softgpu::SoftGpuConfig::soft();
  f.node = std::make_unique<WorkerNode>(f.sim, 0, f.config, f.scheduler,
                                        f.collector);
  std::size_t redistributed = 0;
  f.node->set_redistribute([&](workload::Batch&&) { ++redistributed; });
  for (auto* slice : f.node->gpu().slices()) slice->set_accepting(false);
  f.node->enqueue(make_batch(resnet(), true, 0.0, 1));
  ASSERT_EQ(f.node->queued(), 1u);
  const gpu::Geometry target = gpu::Geometry::g3_3();
  ASSERT_NE(f.node->gpu().geometry(), target);
  EXPECT_TRUE(f.node->begin_reconfigure(target));
  EXPECT_FALSE(f.node->gpu().reconfiguring());
  EXPECT_EQ(f.node->gpu().geometry(), target);
  // The fresh slices accept immediately, so the batch dispatches on this
  // node instead of being redistributed away.
  EXPECT_EQ(redistributed, 0u);
  EXPECT_EQ(f.node->queued() + f.node->running(), 1u);
  f.sim.run_until(f.sim.now() + 30.0);
  EXPECT_EQ(f.node->batches_served(), 1u);
}

TEST(WorkerNode, DrainingReconfigureStillRedistributesQueue) {
  // The flip side: a real MIG drain takes the GPU down, so queued batches
  // are handed back for redistribution exactly as before.
  Fixture f;
  std::size_t redistributed = 0;
  f.node->set_redistribute([&](workload::Batch&&) { ++redistributed; });
  for (auto* slice : f.node->gpu().slices()) slice->set_accepting(false);
  f.node->enqueue(make_batch(resnet(), true, 0.0, 1));
  ASSERT_EQ(f.node->queued(), 1u);
  const gpu::Geometry target = gpu::Geometry::g3_3();
  ASSERT_NE(f.node->gpu().geometry(), target);
  EXPECT_TRUE(f.node->begin_reconfigure(target));
  EXPECT_TRUE(f.node->gpu().reconfiguring());
  EXPECT_EQ(f.node->queued(), 0u);
  EXPECT_EQ(redistributed, 1u);
}

}  // namespace
}  // namespace protean::cluster
