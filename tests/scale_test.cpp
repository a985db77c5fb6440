// Tests for the control-plane scale refactor (docs/scale.md): per-scheme
// dispatch determinism, sharded gateways, fleet totals across a crash,
// the dispatch-index audit, and the batch object pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "autoscale/controller.h"
#include "cluster/cluster.h"
#include "cluster/gateway.h"
#include "common/pool.h"
#include "fault/injector.h"
#include "harness/experiment.h"
#include "harness/json.h"
#include "sched/baselines.h"
#include "sched/registry.h"
#include "telemetry/pipeline.h"
#include "telemetry/registry.h"
#include "trace/driver.h"

namespace protean {
namespace {

using workload::ModelCatalog;

/// The smallest fleet that splits into three non-trivial shards.
harness::ExperimentConfig nine_node_config(sched::Scheme scheme) {
  auto config = harness::primary_config("ResNet 50", 10.0)
                    .with_scheme(scheme)
                    .with_nodes(9);
  config.warmup = 2.0;
  return config;
}

/// Full scalar fingerprint of a report; equality means byte-identity of
/// everything the CLI would print.
std::string fingerprint(const harness::Report& report) {
  return harness::report_to_json(report).dump(2);
}

/// Every scheme's dispatch policy, unsharded and over three shards. In
/// Debug builds each dispatch also cross-checks the load index against the
/// reference least_loaded_scan and the accepting set against live node
/// state, so this sweep is what exercises those checks for every policy.
class SchemeDispatch
    : public ::testing::TestWithParam<std::tuple<sched::Scheme, std::uint32_t>> {
};

TEST_P(SchemeDispatch, RepeatIsByteIdentical) {
  const auto [scheme, shards] = GetParam();
  const auto config = nine_node_config(scheme).with_shards(shards);
  const harness::Report first = harness::run_experiment(config);
  EXPECT_GT(first.strict_completed, 0u) << sched::scheme_name(scheme);
  EXPECT_EQ(fingerprint(first), fingerprint(harness::run_experiment(config)))
      << sched::scheme_name(scheme) << " shards=" << shards;
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeDispatch,
    ::testing::Combine(::testing::ValuesIn(sched::all_schemes()),
                       ::testing::Values(1u, 3u)),
    [](const ::testing::TestParamInfo<SchemeDispatch::ParamType>& param) {
      std::string name = sched::scheme_cli_name(std::get<0>(param.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_shards" + std::to_string(std::get<1>(param.param));
    });

TEST(ScaleIdentity, SingleShardMatchesUnshardedBaseline) {
  const harness::Report base =
      harness::run_experiment(nine_node_config(sched::Scheme::kProtean));
  const harness::Report sharded = harness::run_experiment(
      nine_node_config(sched::Scheme::kProtean).with_shards(1));
  EXPECT_EQ(fingerprint(base), fingerprint(sharded));
}

TEST(ScaleIdentity, NineNodeCellIsDeterministic) {
  const auto config = nine_node_config(sched::Scheme::kProtean);
  EXPECT_EQ(fingerprint(harness::run_experiment(config)),
            fingerprint(harness::run_experiment(config)));
}

// ---- sharded control plane ------------------------------------------------

struct ShardedDeployment {
  sim::Simulator sim;
  std::unique_ptr<cluster::Scheduler> scheduler;
  std::vector<std::unique_ptr<cluster::Scheduler>> shard_store;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<trace::WorkloadDriver> driver;

  ShardedDeployment(std::uint32_t nodes, std::uint32_t shards,
                    double rps = 1200.0, Duration horizon = 20.0) {
    scheduler = sched::make_scheduler(sched::Scheme::kProtean);
    cluster::ClusterConfig config;
    config.node_count = nodes;
    config.shards = shards;
    std::vector<cluster::Scheduler*> shard_ptrs;
    if (shards > 1) {
      for (std::uint32_t s = 0; s < shards; ++s) {
        shard_store.push_back(sched::make_scheduler(sched::Scheme::kProtean));
        shard_ptrs.push_back(shard_store.back().get());
      }
    }
    cluster = std::make_unique<cluster::Cluster>(sim, config, *scheduler,
                                                 shard_ptrs);
    trace::DriverConfig dc;
    dc.trace.kind = trace::TraceKind::kConstant;
    dc.trace.target_rps = rps;
    dc.trace.horizon = horizon;
    dc.strict_model = &ModelCatalog::instance().by_name("ResNet 50");
    dc.seed = 21;
    driver = std::make_unique<trace::WorkloadDriver>(sim, dc,
                                                     cluster->sink());
    for (NodeId id = 0; id < config.node_count; ++id) {
      cluster->node(id).prewarm(*dc.strict_model, 4);
      for (const auto* be : driver->be_models()) {
        cluster->node(id).prewarm(*be, 2);
      }
    }
  }

  void run(Duration horizon, Duration drain = 15.0) {
    cluster->start();
    driver->start();
    sim.run_until(horizon);
    cluster->flush_gateways();
    sim.run_until(horizon + drain);
  }
};

TEST(ShardedCluster, ServesAndConservesRequests) {
  ShardedDeployment d(6, 3);
  d.run(20.0);
  EXPECT_EQ(d.cluster->shard_count(), 3u);
  // Every emitted request hits exactly one gateway shard.
  EXPECT_EQ(d.cluster->gateway_requests_seen(), d.driver->requests_emitted());
  const auto& collector = d.cluster->collector();
  const std::uint64_t served =
      collector.strict_completed() + collector.be_completed();
  EXPECT_GT(collector.strict_completed(), 0u);
  EXPECT_NEAR(static_cast<double>(served),
              static_cast<double>(d.driver->requests_emitted()),
              0.03 * static_cast<double>(d.driver->requests_emitted()));
  // Every shard took a share of the traffic.
  for (std::size_t s = 0; s < d.cluster->shard_count(); ++s) {
    EXPECT_GT(d.cluster->gateway(s).requests_seen(), 0u) << "shard " << s;
  }
}

TEST(ShardedCluster, FanoutRotatesTheRemainderAcrossShards) {
  ShardedDeployment d(3, 3, /*rps=*/100.0, /*horizon=*/1.0);
  d.cluster->start();
  const auto& resnet = ModelCatalog::instance().by_name("ResNet 50");
  // count=4 over K=3 leaves one remainder grain per call; the rotating
  // cursor must hand it to a different shard each time.
  for (int call = 0; call < 3; ++call) {
    d.cluster->sink().on_arrivals(resnet, true, 4, 0.0, 0.01);
  }
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(d.cluster->gateway(s).requests_seen(), 4u) << "shard " << s;
  }
}

TEST(ShardedCluster, ShardLoadSkewIsOneWhenIdleOrUnsharded) {
  ShardedDeployment sharded(4, 2, /*rps=*/100.0, /*horizon=*/1.0);
  EXPECT_DOUBLE_EQ(sharded.cluster->shard_load_skew(), 1.0);  // idle
  ShardedDeployment single(4, 1, /*rps=*/100.0, /*horizon=*/1.0);
  single.run(5.0, 5.0);
  EXPECT_DOUBLE_EQ(single.cluster->shard_load_skew(), 1.0);  // unsharded
}

TEST(ShardedCluster, BatchIdsAreGloballyUniqueAcrossShards) {
  sim::Simulator sim;
  cluster::ClusterConfig config;
  const auto& resnet = ModelCatalog::instance().by_name("ResNet 50");
  std::vector<BatchId> ids;
  std::vector<std::unique_ptr<cluster::Gateway>> gateways;
  const std::uint64_t stride = 3;
  for (std::uint64_t s = 0; s < stride; ++s) {
    gateways.push_back(std::make_unique<cluster::Gateway>(
        sim, config,
        [&ids, s, stride](workload::Batch&& batch) {
          ids.push_back(batch.id);
          // Shard s owns the congruence class s+1 (mod stride).
          EXPECT_EQ((batch.id - 1) % stride, s);
        },
        /*first_batch_id=*/s + 1, /*id_stride=*/stride));
  }
  for (int round = 0; round < 4; ++round) {
    for (auto& gateway : gateways) {
      gateway->on_arrivals(resnet, true, 128, 0.0, 0.01);  // full batch
    }
  }
  const std::set<BatchId> unique(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), ids.size());
  EXPECT_EQ(ids.size(), 12u);
}

// ---- fleet totals ----------------------------------------------------------

TEST(FleetTotals, CountEventsOnGpusThatACrashRetired) {
  // One node, no prewarm: serving pays cold starts, and a crash leaves no
  // other node to take its work. MIG-only never reconfigures on its own,
  // so the two reconfigurations below are the only ones.
  sim::Simulator sim;
  auto scheduler = sched::make_scheduler(sched::Scheme::kMigOnly);
  cluster::ClusterConfig config;
  config.node_count = 1;
  config.fault.enabled = true;
  config.fault.reboot_delay = 5.0;
  cluster::Cluster deployment(sim, config, *scheduler);
  trace::DriverConfig dc;
  dc.trace.kind = trace::TraceKind::kConstant;
  dc.trace.target_rps = 300.0;
  dc.trace.horizon = 30.0;
  dc.strict_model = &ModelCatalog::instance().by_name("ResNet 50");
  dc.seed = 7;
  trace::WorkloadDriver driver(sim, dc, deployment.sink());
  deployment.start();
  driver.start();
  cluster::WorkerNode& node = deployment.node(0);
  const auto reconfigure = [&node] {
    const gpu::Geometry target = node.gpu().geometry() == gpu::Geometry::g4_3()
                                     ? gpu::Geometry::g4_2_1()
                                     : gpu::Geometry::g4_3();
    ASSERT_TRUE(node.begin_reconfigure(target));
  };

  sim.run_until(5.0);
  reconfigure();
  sim.run_until(10.0);
  ASSERT_EQ(deployment.total_reconfigurations(), 1);
  const std::uint64_t cold = deployment.total_cold_starts();
  EXPECT_GT(cold, 0u);

  // The crash retires the GPU and its containers; what happened on them
  // still counts.
  ASSERT_TRUE(deployment.inject_crash(0));
  EXPECT_FALSE(node.up());
  EXPECT_EQ(deployment.total_reconfigurations(), 1);
  EXPECT_EQ(deployment.total_cold_starts(), cold);

  sim.run_until(16.0);  // rebooted after 5 s
  ASSERT_TRUE(node.up());
  reconfigure();
  sim.run_until(22.0);
  EXPECT_EQ(deployment.total_reconfigurations(), 2);
  EXPECT_EQ(deployment.total_failed_reconfigurations(), 0);
  // The rebooted VM boots its containers afresh.
  EXPECT_GT(deployment.total_cold_starts(), cold);
}

TEST(FleetTotals, ColdStartGaugeReadsTheFleetTotal) {
  // No prewarm: serving pays cold starts on every node, and a crash
  // retires one node's containers between the two scrapes.
  sim::Simulator sim;
  telemetry::MetricsRegistry registry;
  auto scheduler = sched::make_scheduler(sched::Scheme::kProtean);
  cluster::ClusterConfig config;
  config.node_count = 3;
  config.fault.enabled = true;
  config.fault.reboot_delay = 5.0;
  config.telemetry = &registry;
  cluster::Cluster deployment(sim, config, *scheduler);
  trace::DriverConfig dc;
  dc.trace.kind = trace::TraceKind::kConstant;
  dc.trace.target_rps = 900.0;
  dc.trace.horizon = 20.0;
  dc.strict_model = &ModelCatalog::instance().by_name("ResNet 50");
  dc.seed = 7;
  trace::WorkloadDriver driver(sim, dc, deployment.sink());
  deployment.start();
  driver.start();

  const std::vector<std::string>& names = registry.sample_names();
  const auto at = std::find(names.begin(), names.end(), "cold_starts_total");
  ASSERT_NE(at, names.end());
  const auto gauge = [&registry, &at, &names] {
    std::vector<double> values;
    registry.scrape_values(&values);
    return values.at(static_cast<std::size_t>(at - names.begin()));
  };
  const auto node_sum = [&deployment, &config] {
    std::uint64_t sum = 0;
    for (NodeId id = 0; id < config.node_count; ++id) {
      sum += deployment.node(id).cold_starts();
    }
    return sum;
  };

  sim.run_until(8.0);
  const std::uint64_t before = deployment.total_cold_starts();
  EXPECT_GT(before, 0u);
  EXPECT_EQ(before, node_sum());
  EXPECT_DOUBLE_EQ(gauge(), static_cast<double>(before));

  ASSERT_TRUE(deployment.inject_crash(1));
  sim.run_until(20.0);  // rebooted after 5 s, with its containers cold
  const std::uint64_t after = deployment.total_cold_starts();
  EXPECT_GT(after, before);
  EXPECT_EQ(after, node_sum());
  EXPECT_DOUBLE_EQ(gauge(), static_cast<double>(after));
}

// ---- dispatch-index audit -------------------------------------------------
//
// The ready bitset, the least-loaded order and the per-node consolidation
// memo are maintained by listener calls and version stamps; a missed one
// routes silently differently. These runs step the simulator one event at
// a time and audit every index against live node state after each event,
// in every build type.

/// Whole-GPU MPS with no dispatch_policy() override (so the cluster routes
/// at random), flipping each node between the full and a 4g+3g geometry on
/// a staggered monitor schedule: real drains, downtimes and rebuilds.
class FlippingScheduler final : public cluster::Scheduler {
 public:
  std::string name() const override { return "flipping"; }
  gpu::Slice* place(const workload::Batch& batch,
                    cluster::WorkerNode& node) override {
    for (gpu::Slice* slice : node.gpu().slices()) {
      if (!batch.model->fits(slice->profile())) continue;
      if (slice->can_admit(workload::job_spec_for(batch, slice->profile()))) {
        return slice;
      }
    }
    return nullptr;
  }
  void on_monitor(cluster::WorkerNode& node, int& reconfig_budget) override {
    if (reconfig_budget <= 0 || node.gpu().reconfiguring()) return;
    if ((++ticks_ + node.id()) % 3 != 0) return;
    const gpu::Geometry next = node.gpu().geometry() == gpu::Geometry::full()
                                   ? gpu::Geometry::g4_3()
                                   : gpu::Geometry::full();
    if (node.begin_reconfigure(next)) --reconfig_budget;
  }

 private:
  std::uint64_t ticks_ = 0;
};

struct AuditedDeployment {
  sim::Simulator sim;
  std::unique_ptr<cluster::Scheduler> scheduler;
  std::optional<telemetry::TelemetryPipeline> pipeline;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<trace::WorkloadDriver> driver;
  std::optional<autoscale::AutoscaleController> controller;
  std::uint64_t audited_events = 0;

  AuditedDeployment(std::unique_ptr<cluster::Scheduler> policy,
                    cluster::ClusterConfig config, double rps)
      : scheduler(std::move(policy)) {
    if (config.autoscale.enabled) {
      telemetry::TelemetryOptions fileless;
      fileless.interval = config.autoscale.tick;
      pipeline.emplace(sim, fileless, telemetry::BurnRateConfig{});
      config.telemetry = &pipeline->registry();
    }
    cluster = std::make_unique<cluster::Cluster>(sim, config, *scheduler);
    trace::DriverConfig dc;
    dc.trace.kind = trace::TraceKind::kConstant;
    dc.trace.target_rps = rps;
    dc.trace.horizon = 40.0;
    dc.strict_model = &ModelCatalog::instance().by_name("ResNet 50");
    dc.seed = 13;
    driver = std::make_unique<trace::WorkloadDriver>(sim, dc,
                                                     cluster->sink());
    if (pipeline.has_value()) {
      controller.emplace(sim, *cluster, *pipeline, config.autoscale,
                         dc.strict_model);
    }
  }

  /// Steps to `until`, auditing the dispatch index after every event.
  void run_audited(SimTime until) {
    cluster->start();
    driver->start();
    while (sim.now() < until && sim.step()) {
      ++audited_events;
      const std::string problem = cluster->audit_dispatch_index();
      ASSERT_TRUE(problem.empty())
          << "t=" << sim.now() << " event " << sim.executed() << ": "
          << problem;
    }
  }
};

TEST(DispatchIndexAudit, RandomRoutingThroughReconfigurations) {
  cluster::ClusterConfig config;
  config.node_count = 6;
  config.monitor_interval = 1.0;
  config.max_reconfig_fraction = 0.5;
  // Timed-out reconfigurations come back through the fault path's rebuild.
  config.fault.enabled = true;
  config.fault.reconfig_fail_prob = 0.3;
  AuditedDeployment d(std::make_unique<FlippingScheduler>(), config, 1500.0);
  d.run_audited(40.0);
  EXPECT_GT(d.audited_events, 1000u);
  EXPECT_GT(d.cluster->total_reconfigurations(), 5);
  EXPECT_GT(d.cluster->total_failed_reconfigurations(), 0);
  EXPECT_GT(d.cluster->collector().strict_completed(), 0u);
}

/// PROTEAN's least-loaded Dispatcher through its own reconfigurations, node
/// crashes with reboots, ECC losses with repair reconfigurations, and
/// autoscale drains. The audit after every event checks each tree leaf and
/// inner winner and compares every shard's indexed least-loaded pick with
/// the reference least_loaded_scan, in every build type.
TEST(DispatchIndexAudit, LeastLoadedThroughReconfigurations) {
  cluster::ClusterConfig config;
  config.node_count = 6;
  config.monitor_interval = 1.0;
  config.max_reconfig_fraction = 0.5;
  config.fault.enabled = true;
  config.fault.crash_rate = 300.0;  // per node-hour
  config.fault.ecc_rate = 300.0;
  config.fault.reboot_delay = 4.0;
  config.fault.ecc_repair_delay = 4.0;
  config.autoscale.enabled = true;
  config.autoscale.tick = 2.0;
  config.autoscale.settle_ticks = 1;
  AuditedDeployment d(sched::make_scheduler(sched::Scheme::kProtean), config,
                      1500.0);
  d.run_audited(40.0);
  EXPECT_GT(d.audited_events, 1000u);
  EXPECT_GT(d.cluster->total_reconfigurations(), 0);
  const fault::FaultInjector& faults = *d.cluster->injector();
  EXPECT_GT(faults.injected_crashes(), 0);
  EXPECT_GT(faults.injected_ecc(), 0);
  EXPECT_GT(d.controller->stats().releases, 0);
  EXPECT_GT(d.cluster->collector().strict_completed(), 0u);
}

/// Naive Slicing placement behind consolidating dispatch, so ECC faults
/// have a multi-slice GPU to land on.
class ConsolidatingNaiveScheduler final : public sched::NaiveSlicingScheduler {
 public:
  std::optional<cluster::DispatchPolicy> dispatch_policy() const override {
    return cluster::DispatchPolicy::kConsolidate;
  }
};

/// Consolidating dispatch (INFless's own policy, and Naive Slicing through
/// ConsolidatingNaiveScheduler) under crashes with reboots, ECC losses with
/// repair reconfigurations, the model cache, and autoscale drains.
class ConsolidateAudit : public ::testing::TestWithParam<sched::Scheme> {};

TEST_P(ConsolidateAudit, HoldsUnderFaultsMemcacheAndAutoscale) {
  cluster::ClusterConfig config;
  config.node_count = 6;
  config.memcache.enabled = true;
  config.fault.enabled = true;
  config.fault.crash_rate = 300.0;  // per node-hour
  config.fault.ecc_rate = 300.0;
  config.fault.reboot_delay = 4.0;
  config.fault.ecc_repair_delay = 4.0;
  config.autoscale.enabled = true;
  config.autoscale.tick = 2.0;
  config.autoscale.settle_ticks = 1;
  std::unique_ptr<cluster::Scheduler> scheduler =
      GetParam() == sched::Scheme::kNaiveSlicing
          ? std::make_unique<ConsolidatingNaiveScheduler>()
          : sched::make_scheduler(GetParam());
  AuditedDeployment d(std::move(scheduler), config, 1200.0);
  d.run_audited(40.0);
  EXPECT_GT(d.audited_events, 1000u);
  const fault::FaultInjector& faults = *d.cluster->injector();
  EXPECT_GT(faults.injected_crashes(), 0);
  if (GetParam() == sched::Scheme::kNaiveSlicing) {
    EXPECT_GT(faults.injected_ecc(), 0);
  }
  EXPECT_GT(d.cluster->total_lost_batches(), 0u);
  EXPECT_GT(d.controller->stats().releases, 0);
  EXPECT_GT(d.cluster->collector().strict_completed(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, ConsolidateAudit,
    ::testing::Values(sched::Scheme::kInflessLlama,
                      sched::Scheme::kNaiveSlicing),
    [](const ::testing::TestParamInfo<sched::Scheme>& param) {
      return param.param == sched::Scheme::kInflessLlama ? "infless"
                                                         : "naive";
    });

// ---- batch object pool ----------------------------------------------------

TEST(ObjectPool, RecyclesReleasedStorage) {
  common::ObjectPool<int> pool;
  auto a = pool.make(7);
  EXPECT_EQ(*a, 7);
  EXPECT_EQ(pool.free_count(), 0u);
  int* block = a.get();
  a.reset();
  EXPECT_EQ(pool.free_count(), 1u);
  auto b = pool.make(9);
  EXPECT_EQ(*b, 9);
  EXPECT_EQ(b.get(), block);  // same block, recycled
  EXPECT_EQ(pool.free_count(), 0u);
}

TEST(ObjectPool, BoxOutlivingPoolFallsBackToGlobalDelete) {
  std::shared_ptr<workload::Batch> box;
  {
    common::ObjectPool<workload::Batch> pool;
    box = pool.make();
    box->id = 42;
  }
  // The pool (and its free list) are gone; releasing the box must route
  // to the global allocator, not a dangling free list.
  EXPECT_EQ(box->id, 42u);
  box.reset();
}

}  // namespace
}  // namespace protean
