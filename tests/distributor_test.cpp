// Tests for the Job Distribution logic (Algorithm 1) and the slowdown model
// (Section 3).
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "core/distributor.h"
#include "core/slowdown.h"
#include "gpu/engine.h"
#include "sim/simulator.h"
#include "workload/model.h"

namespace protean::core {
namespace {

using gpu::Geometry;
using gpu::SharingMode;
using gpu::Slice;
using gpu::SliceProfile;
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

struct GpuFixture {
  sim::Simulator sim;
  gpu::Gpu gpu;
  explicit GpuFixture(Geometry geometry = Geometry::g4_2_1())
      : gpu(sim, 0, std::move(geometry), SharingMode::kMps) {}
  std::span<Slice* const> slices() { return gpu.slices(); }
  /// The live slices in the order choose_best_effort_slice expects.
  std::vector<Slice*> ascending() {
    const auto live = gpu.slices();
    std::vector<Slice*> sorted(live.begin(), live.end());
    std::sort(sorted.begin(), sorted.end(), gpu::slice_order_ascending);
    return sorted;
  }
};

TEST(Eq1, ExecTimeMatchesPaperFormula) {
  EXPECT_DOUBLE_EQ(eq1_exec_time(0.1, 0.3, 0.4), 0.1);        // sum < 1
  EXPECT_DOUBLE_EQ(eq1_exec_time(0.1, 0.8, 0.8), 0.16);       // sum 1.6
  EXPECT_DOUBLE_EQ(eq1_exec_time(1.0, 0.5, 0.0), 1.0);        // solo
}

TEST(SlowdownFactor, ReducesToRdfWithoutContention) {
  const auto& shuffle = model("ShuffleNet V2");
  EXPECT_NEAR(slowdown_factor(shuffle, SliceProfile::k4g, 0.0),
              shuffle.rdf(SliceProfile::k4g), 1e-9);
}

TEST(SlowdownFactor, GrowsWithResidentFbr) {
  const auto& resnet = model("ResNet 50");
  const double idle = slowdown_factor(resnet, SliceProfile::k4g, 0.0);
  const double busy = slowdown_factor(resnet, SliceProfile::k4g, 1.5);
  EXPECT_GT(busy, idle);
}

TEST(SlowdownFactor, AccountsTaggedBeInterference) {
  const auto& resnet = model("ResNet 50");
  const double bare = slowdown_factor(resnet, SliceProfile::k4g, 0.5, 0.5);
  const double tagged =
      slowdown_factor(resnet, SliceProfile::k4g, 0.5, 0.5, 0.8);
  EXPECT_GT(tagged, bare);
}

TEST(SlowdownFactor, SaturatedJobNormalizedAgainstOwnFbr) {
  const auto& gpt2 = model("GPT-2");  // fbr 1.35 > 1
  // Alone on 7g: contention beyond its own ceiling is zero.
  EXPECT_NEAR(slowdown_factor(gpt2, SliceProfile::k7g, 0.0), 1.0, 1e-9);
}

TEST(FbrEstimator, RecoversFbrFromCoLocations) {
  FbrEstimator estimator;
  const double true_fbr = 0.7;
  for (double others : {0.5, 0.8, 1.2, 1.6}) {
    const double slowdown = std::max(true_fbr + others, 1.0);
    estimator.observe(others, slowdown);
  }
  EXPECT_NEAR(estimator.estimate(), true_fbr, 1e-9);
  EXPECT_EQ(estimator.samples(), 4u);
}

TEST(FbrEstimator, IgnoresUnsaturatedRuns) {
  FbrEstimator estimator;
  estimator.observe(0.1, 1.0);  // unsaturated: carries no information
  EXPECT_EQ(estimator.samples(), 0u);
  EXPECT_DOUBLE_EQ(estimator.estimate(), 0.0);
}

TEST(ComputeTags, NoBeDemandLeavesAllTagsZero) {
  GpuFixture f;
  const auto tagged = JobDistributor::compute_tags(f.slices(), 0.0);
  ASSERT_EQ(tagged.size(), 3u);
  for (const auto& ts : tagged) EXPECT_DOUBLE_EQ(ts.tag_value, 0.0);
  // Ascending order: 1g first.
  EXPECT_EQ(tagged[0].slice->profile(), SliceProfile::k1g);
  EXPECT_EQ(tagged[2].slice->profile(), SliceProfile::k4g);
}

TEST(ComputeTags, FillsSmallestSlicesFirst) {
  GpuFixture f;  // (4g=20, 2g=10, 1g=5)
  const auto tagged = JobDistributor::compute_tags(f.slices(), 8.0);
  // 1g (5 GB) fully tagged, 2g tagged 3/10, 4g untouched.
  EXPECT_DOUBLE_EQ(tagged[0].tag_value, 1.0);
  EXPECT_NEAR(tagged[1].tag_value, 0.3, 1e-9);
  EXPECT_DOUBLE_EQ(tagged[2].tag_value, 0.0);
}

TEST(ComputeTags, HugeBacklogTagsEverything) {
  GpuFixture f;
  const auto tagged = JobDistributor::compute_tags(f.slices(), 100.0);
  for (const auto& ts : tagged) EXPECT_DOUBLE_EQ(ts.tag_value, 1.0);
}

TEST(ChooseStrict, PrefersLeastSlowdownSlice) {
  GpuFixture f(Geometry::g4_3());
  const auto tagged = JobDistributor::compute_tags(f.slices(), 0.0);
  Batch strict = make_batch(model("ResNet 50"), true);
  Slice* chosen = JobDistributor::choose_strict_slice(strict, tagged, 0.0);
  ASSERT_NE(chosen, nullptr);
  // Both slices idle: 4g has the lower RDF.
  EXPECT_EQ(chosen->profile(), SliceProfile::k4g);
}

TEST(ChooseStrict, AvoidsBusySliceWhenSmallerIsBetter) {
  GpuFixture f(Geometry::g4_3());
  // Load the 4g with two heavy residents.
  auto slices = f.slices();
  gpu::JobSpec heavy;
  heavy.solo_time = 10.0;
  heavy.fbr = 1.0;
  heavy.sm_share = 1.0;
  heavy.mem_gb = 2.0;
  slices[0]->submit(heavy, [](const gpu::JobCompletion&) {});
  heavy.id = 2;
  slices[0]->submit(heavy, [](const gpu::JobCompletion&) {});

  const auto tagged = JobDistributor::compute_tags(f.slices(), 0.0);
  Batch strict = make_batch(model("ResNet 50"), true);
  Slice* chosen = JobDistributor::choose_strict_slice(strict, tagged, 0.0);
  ASSERT_NE(chosen, nullptr);
  EXPECT_EQ(chosen->profile(), SliceProfile::k3g);
}

TEST(ChooseStrict, SkipsSlicesFullyTaggedByBe) {
  GpuFixture f(Geometry::g4_3());
  // 3g fully claimed by BE (20 GB): strict must take 4g even if η is worse.
  const auto tagged = JobDistributor::compute_tags(f.slices(), 20.0);
  EXPECT_DOUBLE_EQ(tagged[0].tag_value, 1.0);  // 3g
  Batch strict = make_batch(model("ResNet 50"), true);
  Slice* chosen = JobDistributor::choose_strict_slice(strict, tagged, 0.1);
  ASSERT_NE(chosen, nullptr);
  EXPECT_EQ(chosen->profile(), SliceProfile::k4g);
}

TEST(ChooseStrict, FallsBackWhenEverySliceIsTagged) {
  GpuFixture f(Geometry::g4_3());
  const auto tagged = JobDistributor::compute_tags(f.slices(), 100.0);
  Batch strict = make_batch(model("ResNet 50"), true);
  // A BE backlog larger than the GPU must not starve strict requests.
  Slice* chosen = JobDistributor::choose_strict_slice(strict, tagged, 0.1);
  ASSERT_NE(chosen, nullptr);
}

TEST(ChooseStrict, RespectsModelMemoryFit) {
  GpuFixture f(Geometry::g4_2_1());
  const auto tagged = JobDistributor::compute_tags(f.slices(), 0.0);
  Batch strict = make_batch(model("DPN 92"), true);  // 14 GB: only 4g fits
  Slice* chosen = JobDistributor::choose_strict_slice(strict, tagged, 0.0);
  ASSERT_NE(chosen, nullptr);
  EXPECT_EQ(chosen->profile(), SliceProfile::k4g);
}

TEST(ChooseBestEffort, FirstFitSmallestSlice) {
  GpuFixture f(Geometry::g4_2_1());
  const auto ascending = f.ascending();
  Batch be = make_batch(model("MobileNet"), false);  // 2.5 GB fits 1g
  Slice* chosen = JobDistributor::choose_best_effort_slice(be, ascending);
  ASSERT_NE(chosen, nullptr);
  EXPECT_EQ(chosen->profile(), SliceProfile::k1g);
}

TEST(ChooseBestEffort, SkipsTooSmallSlices) {
  GpuFixture f(Geometry::g4_2_1());
  const auto ascending = f.ascending();
  Batch be = make_batch(model("ResNet 50"), false);  // 6 GB: 1g too small
  Slice* chosen = JobDistributor::choose_best_effort_slice(be, ascending);
  ASSERT_NE(chosen, nullptr);
  EXPECT_EQ(chosen->profile(), SliceProfile::k2g);
}

TEST(ChooseBestEffort, ProtectsLargestSliceWhenSmallerCouldServe) {
  GpuFixture f(Geometry::g4_3());
  // Fill the 3g so it cannot admit right now.
  gpu::JobSpec filler;
  filler.solo_time = 10.0;
  filler.fbr = 0.1;
  filler.sm_share = 0.1;
  filler.mem_gb = 19.0;
  f.slices()[1]->submit(filler, [](const gpu::JobCompletion&) {});

  const auto ascending = f.ascending();
  Batch be = make_batch(model("MobileNet"), false);
  // MobileNet fits the 3g in principle: it must wait, not take the 4g.
  EXPECT_EQ(JobDistributor::choose_best_effort_slice(be, ascending), nullptr);
}

TEST(ChooseBestEffort, SpillsToLargestWhenNothingElseCanEverFit) {
  GpuFixture f(Geometry::g4_2_1());
  const auto ascending = f.ascending();
  Batch be = make_batch(model("DPN 92"), false);  // fits only the 4g
  Slice* chosen = JobDistributor::choose_best_effort_slice(be, ascending);
  ASSERT_NE(chosen, nullptr);
  EXPECT_EQ(chosen->profile(), SliceProfile::k4g);
}

}  // namespace
}  // namespace protean::core
