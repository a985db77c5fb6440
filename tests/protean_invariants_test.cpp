// Property-style invariants of the PROTEAN policies and the engine.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "core/distributor.h"
#include "gpu/engine.h"
#include "sched/registry.h"
#include "trace/driver.h"

namespace protean {
namespace {

using workload::Batch;
using workload::ModelCatalog;
using workload::ModelProfile;

// ---- engine conservation under random MPS job mixes -----------------------

class EngineConservationTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EngineConservationTest, AllJobsCompleteAndStateDrains) {
  sim::Simulator sim;
  gpu::Slice slice(sim, nullptr, 0, gpu::SliceProfile::k7g,
                   gpu::SharingMode::kMps);
  Rng rng(GetParam());

  int completed = 0;
  int submitted = 0;
  double solo_total = 0.0;
  double exec_total = 0.0;

  // Random arrivals over 10 s; every admitted job must finish, never faster
  // than its solo time.
  for (double t = 0.0; t < 10.0; t += rng.exponential(2.0)) {
    sim.schedule_at(t, [&, t] {
      gpu::JobSpec spec;
      spec.id = static_cast<JobId>(submitted);
      spec.solo_time = rng.uniform(0.02, 0.4);
      spec.fbr = rng.uniform(0.2, 1.3);
      spec.sm_share = rng.uniform(0.2, 1.0);
      spec.mem_gb = rng.uniform(1.0, 8.0);
      if (!slice.can_admit(spec)) return;
      ++submitted;
      solo_total += spec.solo_time;
      const double solo = spec.solo_time;
      slice.submit(spec, [&, solo](const gpu::JobCompletion& done) {
        ++completed;
        exec_total += done.exec_time;
        EXPECT_GE(done.exec_time, solo - 1e-9);
      });
    });
  }
  sim.run_to_completion();

  EXPECT_GT(submitted, 5);
  EXPECT_EQ(completed, submitted);
  EXPECT_TRUE(slice.idle());
  EXPECT_DOUBLE_EQ(slice.memory_in_use(), 0.0);
  EXPECT_DOUBLE_EQ(slice.fbr_sum(), 0.0);
  EXPECT_DOUBLE_EQ(slice.sm_share_sum(), 0.0);
  // Contention can only stretch total execution time.
  EXPECT_GE(exec_total, solo_total - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineConservationTest,
                         ::testing::Values(1, 7, 42, 1337, 9001));

// ---- distributor invariants across every model × geometry -----------------

class DistributorSweepTest
    : public ::testing::TestWithParam<gpu::Geometry> {};

TEST_P(DistributorSweepTest, PlacementsAlwaysAdmitAndFit) {
  sim::Simulator sim;
  gpu::Gpu device(sim, 0, GetParam(), gpu::SharingMode::kMps);
  for (const auto& model : ModelCatalog::instance().all()) {
    Batch batch;
    batch.model = &model;
    batch.count = model.batch_size;
    for (bool strict : {true, false}) {
      batch.strict = strict;
      const auto tagged =
          core::JobDistributor::compute_tags(device.slices(), 3.0);
      std::vector<gpu::Slice*> ascending;
      for (const core::TaggedSlice& ts : tagged) ascending.push_back(ts.slice);
      gpu::Slice* chosen =
          strict ? core::JobDistributor::choose_strict_slice(batch, tagged, 0.1)
                 : core::JobDistributor::choose_best_effort_slice(batch,
                                                                  ascending);
      if (chosen == nullptr) {
        // Only legitimate when no slice could ever host the model.
        bool any_fit = false;
        for (const auto* slice : device.slices()) {
          if (model.fits(slice->profile())) any_fit = true;
        }
        // BE placements may also defer to protect the largest slice.
        if (strict) EXPECT_FALSE(any_fit) << model.name;
        continue;
      }
      EXPECT_TRUE(model.fits(chosen->profile())) << model.name;
      EXPECT_TRUE(chosen->can_admit(
          workload::job_spec_for(batch, chosen->profile())))
          << model.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EveryGeometry, DistributorSweepTest,
                         ::testing::ValuesIn(gpu::Geometry::all_valid()));

// ---- end-to-end policy invariants -----------------------------------------

struct MiniDeployment {
  sim::Simulator sim;
  std::unique_ptr<cluster::Scheduler> scheduler;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<trace::WorkloadDriver> driver;

  MiniDeployment(sched::Scheme scheme, trace::DriverConfig dc,
                 std::uint32_t nodes = 2) {
    scheduler = sched::make_scheduler(scheme);
    cluster::ClusterConfig config;
    config.node_count = nodes;
    cluster = std::make_unique<cluster::Cluster>(sim, config, *scheduler);
    driver =
        std::make_unique<trace::WorkloadDriver>(sim, dc, cluster->sink());
    for (NodeId id = 0; id < nodes; ++id) {
      cluster->node(id).prewarm(*dc.strict_model, 4);
      for (const auto* be : driver->be_models()) {
        cluster->node(id).prewarm(*be, 3);
      }
    }
    cluster->start();
    driver->start();
  }
};

TEST(ProteanInvariants, StrictStaysFastUnderBeFlood) {
  // 80% BE of a heavy model, 20% strict of a light one: PROTEAN must keep
  // strict latencies near solo while BE queues.
  trace::DriverConfig dc;
  dc.trace.kind = trace::TraceKind::kConstant;
  dc.trace.target_rps = 2000.0;
  dc.trace.horizon = 40.0;
  dc.strict_model = &ModelCatalog::instance().by_name("ShuffleNet V2");
  dc.strict_fraction = 0.2;
  dc.be_pool = {&ModelCatalog::instance().by_name("DenseNet 121")};
  dc.seed = 3;
  MiniDeployment d(sched::Scheme::kProtean, dc);
  d.sim.run_until(55.0);
  const auto& collector = d.cluster->collector();
  EXPECT_GT(collector.slo_compliance_pct(), 95.0);
  // Strict tail stays within ~SLO even though BE work is far heavier.
  EXPECT_LT(collector.strict_percentile(99.0),
            dc.strict_model->slo_deadline() * 1.5);
}

TEST(ProteanInvariants, LargestSliceCarriesLittleBeWhileStrictPresent) {
  trace::DriverConfig dc;
  dc.trace.kind = trace::TraceKind::kConstant;
  dc.trace.target_rps = 1500.0;
  dc.trace.horizon = 20.0;
  dc.strict_model = &ModelCatalog::instance().by_name("ResNet 50");
  dc.strict_fraction = 0.5;
  dc.be_pool = {&ModelCatalog::instance().by_name("MobileNet")};
  dc.seed = 5;
  MiniDeployment d(sched::Scheme::kProtean, dc);
  // Sample the largest slice's BE residency across the run.
  double be_samples = 0.0;
  int samples = 0;
  for (double t = 2.0; t <= 20.0; t += 0.5) {
    d.sim.run_until(t);
    for (NodeId id = 0; id < 2; ++id) {
      auto slices = d.cluster->node(id).gpu().slices();
      if (slices.empty()) continue;
      be_samples += slices.front()->be_memory_in_use();
      ++samples;
    }
  }
  ASSERT_GT(samples, 0);
  // The 4g carries essentially no BE memory on average (MobileNet fits the
  // small slices, which must absorb it).
  EXPECT_LT(be_samples / samples, 1.0);
}

TEST(ProteanInvariants, NoEtaVariantStacksTheLargestSlice) {
  // Rate low enough that the 4g never fills: the ablation has no reason to
  // leave it, while η-placement load-balances contention onto the 3g.
  trace::DriverConfig dc;
  dc.trace.kind = trace::TraceKind::kConstant;
  dc.trace.target_rps = 500.0;
  dc.trace.horizon = 15.0;
  dc.strict_model = &ModelCatalog::instance().by_name("ResNet 50");
  dc.strict_fraction = 1.0;
  dc.seed = 8;

  auto strict_on_smaller = [&](sched::Scheme scheme) {
    MiniDeployment d(scheme, dc, 1);
    int smaller = 0;
    for (double t = 1.0; t <= 15.0; t += 0.25) {
      d.sim.run_until(t);
      auto slices = d.cluster->node(0).gpu().slices();
      for (std::size_t i = 1; i < slices.size(); ++i) {
        smaller += static_cast<int>(slices[i]->strict_jobs());
      }
    }
    return smaller;
  };

  // η-driven placement load-balances strict work onto the 3g when the 4g
  // is contended; the ablation never does.
  EXPECT_GT(strict_on_smaller(sched::Scheme::kProtean), 0);
  EXPECT_EQ(strict_on_smaller(sched::Scheme::kProteanNoEta), 0);
}

TEST(ProteanInvariants, AllBeWorkloadUsesTheWholeGpu) {
  trace::DriverConfig dc;
  dc.trace.kind = trace::TraceKind::kConstant;
  dc.trace.target_rps = 3000.0;
  dc.trace.horizon = 15.0;
  dc.strict_model = &ModelCatalog::instance().by_name("ResNet 50");
  dc.strict_fraction = 0.0;
  dc.be_pool = {&ModelCatalog::instance().by_name("DenseNet 121")};
  dc.seed = 9;
  MiniDeployment d(sched::Scheme::kProtean, dc, 1);
  bool largest_used = false;
  for (double t = 1.0; t <= 15.0; t += 0.25) {
    d.sim.run_until(t);
    auto slices = d.cluster->node(0).gpu().slices();
    if (!slices.empty() && slices.front()->be_memory_in_use() > 0.0) {
      largest_used = true;
    }
  }
  EXPECT_TRUE(largest_used);
}

}  // namespace
}  // namespace protean
