// Tests for the baseline schedulers and the scheme registry.
#include <gtest/gtest.h>

#include "cluster/node.h"
#include "metrics/collector.h"
#include "sched/baselines.h"
#include "sched/registry.h"

namespace protean::sched {
namespace {

using cluster::ClusterConfig;
using cluster::WorkerNode;
using workload::Batch;
using workload::ModelCatalog;
using workload::ModelProfile;

const ModelProfile& model(const char* name) {
  return ModelCatalog::instance().by_name(name);
}

Batch make_batch(const ModelProfile& m, bool strict) {
  Batch b;
  b.model = &m;
  b.strict = strict;
  b.count = m.batch_size;
  b.slo = strict ? m.slo_deadline() : kNeverTime;
  return b;
}

struct Rig {
  sim::Simulator sim;
  ClusterConfig config;
  metrics::Collector collector;
  std::unique_ptr<WorkerNode> node;

  explicit Rig(cluster::Scheduler& scheduler) {
    node = std::make_unique<WorkerNode>(sim, 0, config, scheduler, collector);
  }
};

TEST(Registry, EverySchemeConstructsWithMatchingName) {
  for (auto scheme :
       {Scheme::kMoleculeBeta, Scheme::kInflessLlama, Scheme::kNaiveSlicing,
        Scheme::kMigOnly, Scheme::kMpsMig, Scheme::kSmartMpsMig,
        Scheme::kGpulet, Scheme::kProtean, Scheme::kProteanNoReorder,
        Scheme::kProteanStatic, Scheme::kOracle}) {
    auto scheduler = make_scheduler(scheme);
    ASSERT_NE(scheduler, nullptr);
    EXPECT_EQ(scheduler->name(), scheme_name(scheme));
    EXPECT_TRUE(scheduler->initial_geometry().valid());
  }
}

TEST(Registry, PaperSchemeList) {
  EXPECT_EQ(paper_schemes().size(), 4u);
  EXPECT_EQ(paper_schemes().back(), Scheme::kProtean);
}

TEST(MoleculeBeta, TimeSharesTheWholeGpu) {
  MoleculeBetaScheduler scheduler;
  EXPECT_EQ(scheduler.sharing_mode(), gpu::SharingMode::kTimeShare);
  EXPECT_EQ(scheduler.initial_geometry(), gpu::Geometry::full());
  Rig rig(scheduler);
  Batch b = make_batch(model("ResNet 50"), true);
  gpu::Slice* s = scheduler.place(b, *rig.node);
  ASSERT_NE(s, nullptr);
  // Occupy it: next placement must defer.
  rig.node->prewarm(model("ResNet 50"), 2);
  rig.node->enqueue(make_batch(model("ResNet 50"), true));
  EXPECT_EQ(scheduler.place(b, *rig.node), nullptr);
}

TEST(InflessLlama, ConsolidatesByMemoryOnly) {
  InflessLlamaScheduler scheduler;
  EXPECT_EQ(scheduler.sharing_mode(), gpu::SharingMode::kMps);
  EXPECT_EQ(scheduler.dispatch_policy(),
            cluster::DispatchPolicy::kConsolidate);
  Rig rig(scheduler);
  rig.node->prewarm(model("ResNet 50"), 8);
  // 40 GB / 6 GB: six batches co-run, the seventh is refused.
  for (int i = 0; i < 6; ++i) {
    rig.node->enqueue(make_batch(model("ResNet 50"), true));
  }
  EXPECT_EQ(rig.node->running(), 6u);
  Batch b = make_batch(model("ResNet 50"), true);
  EXPECT_EQ(scheduler.place(b, *rig.node), nullptr);
}

TEST(NaiveSlicing, RoutesToSliceWithMostFreeMemory) {
  NaiveSlicingScheduler scheduler;
  Rig rig(scheduler);
  Batch b = make_batch(model("MobileNet"), false);
  gpu::Slice* s = scheduler.place(b, *rig.node);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->profile(), gpu::SliceProfile::k4g);  // 20 GB free
}

TEST(NaiveSlicing, IgnoresStrictness) {
  NaiveSlicingScheduler scheduler;
  EXPECT_FALSE(scheduler.reorder_strict_first());
  Rig rig(scheduler);
  Batch strict = make_batch(model("MobileNet"), true);
  Batch be = make_batch(model("MobileNet"), false);
  EXPECT_EQ(scheduler.place(strict, *rig.node),
            scheduler.place(be, *rig.node));
}

TEST(MigOnly, UsesIdleSlicesOnly) {
  MigOnlyScheduler scheduler;
  EXPECT_EQ(scheduler.sharing_mode(), gpu::SharingMode::kTimeShare);
  Rig rig(scheduler);
  rig.node->prewarm(model("ResNet 50"), 4);
  rig.node->enqueue(make_batch(model("ResNet 50"), true));  // takes 4g
  rig.node->enqueue(make_batch(model("ResNet 50"), true));  // takes 3g
  EXPECT_EQ(rig.node->running(), 2u);
  Batch b = make_batch(model("ResNet 50"), true);
  EXPECT_EQ(scheduler.place(b, *rig.node), nullptr);  // both busy
}

TEST(MpsMig, BalancesByResidentCount) {
  MpsMigScheduler scheduler;
  Rig rig(scheduler);
  rig.node->prewarm(model("MobileNet"), 4);
  rig.node->enqueue(make_batch(model("MobileNet"), false));
  // First batch went somewhere; second must land on the other slice.
  auto slices = rig.node->gpu().slices();
  Batch b = make_batch(model("MobileNet"), false);
  gpu::Slice* s = scheduler.place(b, *rig.node);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->running_jobs(), 0u);
}

TEST(SmartMpsMig, IsolatesStrictOnLargestSlice) {
  SmartMpsMigScheduler scheduler;
  EXPECT_TRUE(scheduler.reorder_strict_first());
  Rig rig(scheduler);
  Batch strict = make_batch(model("ResNet 50"), true);
  gpu::Slice* s = scheduler.place(strict, *rig.node);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->profile(), gpu::SliceProfile::k4g);

  Batch be = make_batch(model("MobileNet"), false);
  gpu::Slice* sb = scheduler.place(be, *rig.node);
  ASSERT_NE(sb, nullptr);
  EXPECT_EQ(sb->profile(), gpu::SliceProfile::k3g);
}

TEST(Gpulet, CapsStrictSmUsage) {
  GpuletScheduler scheduler;
  Rig rig(scheduler);
  auto* slice = rig.node->gpu().slices()[0];
  Batch strict = make_batch(model("VGG 19"), true);  // sm_req 1.0
  const auto spec = scheduler.make_job(strict, *slice, 1);
  // Solo time stretches by sm_req / cap = 1.6x; average bandwidth thins
  // sublinearly (memory phases still burst at full rate).
  EXPECT_NEAR(spec.solo_time, model("VGG 19").solo_time_7g / 0.625, 1e-9);
  EXPECT_NEAR(spec.fbr, model("VGG 19").fbr * std::sqrt(0.625), 1e-9);
  EXPECT_NEAR(spec.sm_share, 0.625, 1e-9);
}

TEST(Gpulet, BeGetsTheRemainder) {
  GpuletScheduler scheduler;
  Rig rig(scheduler);
  auto* slice = rig.node->gpu().slices()[0];
  Batch be = make_batch(model("VGG 19"), false);
  const auto spec = scheduler.make_job(be, *slice, 1);
  EXPECT_NEAR(spec.solo_time, model("VGG 19").solo_time_7g / 0.375, 1e-9);
  EXPECT_NEAR(spec.fbr, model("VGG 19").fbr * std::sqrt(0.375), 1e-9);
  EXPECT_NEAR(spec.sm_share, 0.375, 1e-9);
}

TEST(Gpulet, CapAboveRequirementIsFree) {
  GpuletScheduler scheduler;
  Rig rig(scheduler);
  auto* slice = rig.node->gpu().slices()[0];
  Batch strict = make_batch(model("ALBERT"), true);  // sm_req 0.35 < cap
  const auto spec = scheduler.make_job(strict, *slice, 1);
  EXPECT_NEAR(spec.solo_time, model("ALBERT").solo_time_7g, 1e-9);
  EXPECT_NEAR(spec.fbr, model("ALBERT").fbr, 1e-9);
}

TEST(Protean, UsesLeastLoadedDispatchAndReorders) {
  auto scheduler = make_scheduler(Scheme::kProtean);
  EXPECT_TRUE(scheduler->reorder_strict_first());
  EXPECT_EQ(scheduler->dispatch_policy(),
            cluster::DispatchPolicy::kLeastLoaded);
  EXPECT_EQ(scheduler->initial_geometry(), gpu::Geometry::g4_3());
}

TEST(Protean, AblationVariantsDifferAsConfigured) {
  auto no_reorder = make_scheduler(Scheme::kProteanNoReorder);
  EXPECT_FALSE(no_reorder->reorder_strict_first());
  auto fixed = make_scheduler(Scheme::kProteanStatic);
  EXPECT_EQ(fixed->initial_geometry(), gpu::Geometry::g4_3());
}

}  // namespace
}  // namespace protean::sched
