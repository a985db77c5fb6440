// Integration tests: full cluster with gateway, nodes, market and a
// workload driver.
#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include "sched/registry.h"
#include "trace/driver.h"

namespace protean::cluster {
namespace {

using workload::ModelCatalog;

struct Deployment {
  sim::Simulator sim;
  std::unique_ptr<Scheduler> scheduler;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<trace::WorkloadDriver> driver;

  Deployment(sched::Scheme scheme, ClusterConfig config,
             trace::DriverConfig driver_config) {
    scheduler = sched::make_scheduler(scheme);
    cluster = std::make_unique<Cluster>(sim, config, *scheduler);
    driver = std::make_unique<trace::WorkloadDriver>(sim, driver_config,
                                                     cluster->sink());
    for (NodeId id = 0; id < config.node_count; ++id) {
      cluster->node(id).prewarm(*driver_config.strict_model, 4);
      for (const auto* be : driver->be_models()) {
        cluster->node(id).prewarm(*be, 2);
      }
    }
  }

  void run(Duration horizon, Duration drain = 15.0) {
    cluster->start();
    driver->start();
    sim.run_until(horizon);
    cluster->gateway().flush_all();
    sim.run_until(horizon + drain);
  }
};

trace::DriverConfig small_driver(double rps = 1200.0, Duration horizon = 20.0) {
  trace::DriverConfig dc;
  dc.trace.kind = trace::TraceKind::kConstant;
  dc.trace.target_rps = rps;
  dc.trace.horizon = horizon;
  dc.strict_model = &ModelCatalog::instance().by_name("ResNet 50");
  dc.seed = 21;
  return dc;
}

ClusterConfig small_cluster(std::uint32_t nodes = 2) {
  ClusterConfig config;
  config.node_count = nodes;
  return config;
}

TEST(ClusterIntegration, ConservesRequests) {
  Deployment d(sched::Scheme::kProtean, small_cluster(), small_driver());
  d.run(20.0);
  const auto& collector = d.cluster->collector();
  const std::uint64_t served =
      collector.strict_completed() + collector.be_completed();
  EXPECT_GT(served, 0u);
  // Everything emitted is eventually served (plenty of capacity).
  EXPECT_NEAR(static_cast<double>(served),
              static_cast<double>(d.driver->requests_emitted()),
              0.03 * static_cast<double>(d.driver->requests_emitted()));
  EXPECT_EQ(collector.dropped(), 0u);
}

TEST(ClusterIntegration, EverySchemeServesTheWorkload) {
  for (auto scheme : sched::paper_schemes()) {
    Deployment d(scheme, small_cluster(), small_driver(800.0));
    d.run(20.0);
    EXPECT_GT(d.cluster->collector().strict_completed(), 0u)
        << sched::scheme_name(scheme);
  }
}

TEST(ClusterIntegration, UtilizationWithinBounds) {
  Deployment d(sched::Scheme::kProtean, small_cluster(), small_driver());
  d.run(20.0);
  EXPECT_GT(d.cluster->gpu_utilization_pct(), 1.0);
  EXPECT_LE(d.cluster->gpu_utilization_pct(), 100.0 + 1e-9);
  EXPECT_GT(d.cluster->memory_utilization_pct(), 0.0);
  EXPECT_LE(d.cluster->memory_utilization_pct(), 100.0 + 1e-9);
}

TEST(ClusterIntegration, ProteanMeetsSloOnLightLoad) {
  auto config = small_cluster(4);
  // At 1500 rps a batch fills in ~170 ms. The hold time is clamped to
  // [50 ms floor, batch_timeout cap]; a 200 ms cap (default 300 ms) still
  // lets the gateway form full batches.
  config.batch_timeout = 0.2;
  Deployment d(sched::Scheme::kProtean, config, small_driver(1500.0));
  d.run(20.0);
  EXPECT_GT(d.cluster->collector().slo_compliance_pct(), 97.0);
}

TEST(ClusterIntegration, OverloadDegradesButDoesNotCrash) {
  // 4x the capacity of two nodes: queues must grow but the run completes.
  Deployment d(sched::Scheme::kMoleculeBeta, small_cluster(),
               small_driver(12000.0, 10.0));
  d.run(10.0, 5.0);
  const auto& collector = d.cluster->collector();
  EXPECT_GT(collector.strict_completed(), 0u);
  EXPECT_LT(collector.slo_compliance_pct(), 50.0);
}

TEST(ClusterIntegration, EvictionRedistributesWithoutLosingService) {
  auto config = small_cluster(4);
  config.market.policy = spot::ProcurementPolicy::kHybrid;
  config.market.p_rev = 0.35;
  config.market.spot_availability = 1.0;  // replacements always granted
  config.market.revocation_check_interval = 10.0;
  config.market.eviction_notice = 5.0;
  config.market.vm_boot_time = 3.0;
  config.cold_start = 2.0;
  Deployment d(sched::Scheme::kProtean, config, small_driver(1000.0, 40.0));
  d.run(40.0);
  EXPECT_GT(d.cluster->market().evictions(), 0);
  const auto& collector = d.cluster->collector();
  const std::uint64_t served =
      collector.strict_completed() + collector.be_completed();
  // Short-running batches + eviction notice: essentially nothing is lost
  // mid-flight; a small fraction may still be rebuilding warm pools when
  // the measurement window closes.
  EXPECT_GT(static_cast<double>(served),
            0.92 * static_cast<double>(d.driver->requests_emitted()));
  EXPECT_LT(static_cast<double>(collector.dropped()),
            0.005 * static_cast<double>(d.driver->requests_emitted()));
}

TEST(ClusterIntegration, SpotDroughtParksWorkInBacklog) {
  auto config = small_cluster(2);
  config.market.policy = spot::ProcurementPolicy::kSpotOnly;
  config.market.p_rev = 1.0;  // nothing ever available
  Deployment d(sched::Scheme::kProtean, config, small_driver(500.0, 10.0));
  d.run(10.0, 2.0);
  // With no nodes, requests pile up in the cluster backlog.
  EXPECT_EQ(d.cluster->collector().strict_completed(), 0u);
  EXPECT_GT(d.cluster->backlog(), 0u);
}

TEST(ClusterIntegration, ProteanReconfiguresUnderBeModelShift) {
  auto dc = small_driver(1500.0, 60.0);
  // Force a geometry change: a mid-footprint model whose demand sits inside
  // the (1g,2g) occupancy band, then back to a tiny one that consolidates.
  dc.be_schedule = {
      {0.0, &ModelCatalog::instance().by_name("DenseNet 121")},
      {40.0, &ModelCatalog::instance().by_name("ShuffleNet V2")},
  };
  Deployment d(sched::Scheme::kProtean, small_cluster(2), dc);
  d.run(60.0);
  EXPECT_GT(d.cluster->total_reconfigurations(), 0);
}

TEST(ClusterIntegration, ReconfigBudgetLimitsConcurrentReconfigs) {
  auto config = small_cluster(8);
  config.max_reconfig_fraction = 0.3;  // cap = 2 of 8
  auto dc = small_driver(4000.0, 30.0);
  dc.be_schedule = {
      {0.0, &ModelCatalog::instance().by_name("MobileNet")},
      {10.0, &ModelCatalog::instance().by_name("DPN 92")},
  };
  Deployment d(sched::Scheme::kProtean, config, dc);
  d.cluster->start();
  d.driver->start();
  int max_concurrent = 0;
  for (double t = 0.5; t <= 30.0; t += 0.5) {
    d.sim.run_until(t);
    int reconfiguring = 0;
    for (NodeId id = 0; id < 8; ++id) {
      if (d.cluster->node(id).up() &&
          d.cluster->node(id).gpu().reconfiguring()) {
        ++reconfiguring;
      }
    }
    max_concurrent = std::max(max_concurrent, reconfiguring);
  }
  EXPECT_LE(max_concurrent, 2);
}

TEST(ClusterIntegration, DeterministicForFixedSeeds) {
  auto run_once = [] {
    Deployment d(sched::Scheme::kProtean, small_cluster(), small_driver());
    d.run(20.0);
    return std::make_pair(d.cluster->collector().strict_completed(),
                          d.cluster->collector().slo_compliance_pct());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

}  // namespace
}  // namespace protean::cluster
