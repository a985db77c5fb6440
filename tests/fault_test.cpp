// Fault-injection & resilience tests (src/fault + recovery paths).
//
// Covers the acceptance checklist: scripted crashes abort in-flight batches
// exactly once, reboot restores capacity, cache residency is invalidated on
// node loss, retry backoff caps, and hedged duplicates are de-duplicated at
// the collector.
#include "fault/config.h"

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "fault/injector.h"
#include "harness/options.h"
#include "metrics/collector.h"
#include "sched/registry.h"
#include "trace/driver.h"

namespace protean::fault {
namespace {

using workload::ModelCatalog;

// ---- retry_backoff (pure) --------------------------------------------------

TEST(RetryBackoff, GrowsExponentiallyFromBase) {
  RetryConfig rc;
  rc.base_backoff = 0.25;
  rc.max_backoff = 5.0;
  EXPECT_DOUBLE_EQ(retry_backoff(1, rc), 0.25);
  EXPECT_DOUBLE_EQ(retry_backoff(2, rc), 0.5);
  EXPECT_DOUBLE_EQ(retry_backoff(3, rc), 1.0);
  EXPECT_DOUBLE_EQ(retry_backoff(4, rc), 2.0);
}

TEST(RetryBackoff, CapsAtMaxBackoff) {
  RetryConfig rc;
  rc.base_backoff = 0.25;
  rc.max_backoff = 5.0;
  EXPECT_DOUBLE_EQ(retry_backoff(6, rc), 5.0);
  EXPECT_DOUBLE_EQ(retry_backoff(30, rc), 5.0);   // no overflow at high k
  EXPECT_DOUBLE_EQ(retry_backoff(100, rc), 5.0);
}

// ---- spec parsing (through the CLI's --faults parser) ----------------------

std::optional<FaultConfig> parse_faults(const std::string& spec,
                                        std::string* error = nullptr) {
  auto result = harness::parse_cli({"--faults", spec});
  if (error != nullptr) *error = result.error;
  if (!result.options) return std::nullopt;
  return result.options->config.cluster.fault;
}

TEST(FaultSpec, ParsesScriptedAndRates) {
  const auto parsed = parse_faults(
      "crash@40:n2,kill@10:n0,ecc-rate=15,reconfig-fail=0.2,reboot=30");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->enabled);
  ASSERT_EQ(parsed->script.size(), 2u);
  EXPECT_EQ(parsed->script[0],
            (ScriptedFault{FaultKind::kCrash, 40.0, 2}));
  EXPECT_EQ(parsed->script[1],
            (ScriptedFault{FaultKind::kSpotKill, 10.0, 0}));
  EXPECT_DOUBLE_EQ(parsed->ecc_rate, 15.0);
  EXPECT_DOUBLE_EQ(parsed->reconfig_fail_prob, 0.2);
  EXPECT_DOUBLE_EQ(parsed->reboot_delay, 30.0);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  for (const char* bad :
       {"", "crash@x:n1", "crash@10", "crash@10:n", "crash@10:2", "flood@1:n0",
        "crash-rate=-3", "reconfig-fail=1.5", "reboot=0", "reboot=-1",
        "bogus-key=1", "crash@10:n1,,kill-rate=5"}) {
    EXPECT_FALSE(parse_faults(bad).has_value()) << "spec: " << bad;
  }
  // A scripted time must be finite, like every other spec number.
  for (const char* bad : {"crash@nan:n1", "crash@inf:n1"}) {
    std::string error;
    EXPECT_FALSE(parse_faults(bad, &error).has_value()) << "spec: " << bad;
    EXPECT_NE(error.find("bad token"), std::string::npos) << error;
  }
}

TEST(FaultSpec, AppliesOnTopOfBase) {
  const auto parsed = harness::parse_cli(
      {"--fault-retries", "7", "--faults", "crash-rate=12"});
  ASSERT_TRUE(parsed.options.has_value()) << parsed.error;
  const FaultConfig& fault = parsed.options->config.cluster.fault;
  EXPECT_TRUE(fault.enabled);
  EXPECT_DOUBLE_EQ(fault.crash_rate, 12.0);
  EXPECT_EQ(fault.retry.max_retries, 7);  // the earlier flag survives
}

// Every scripted kind parses under the name `to_string` prints for it.
class ScriptedKind : public ::testing::TestWithParam<FaultKind> {};

TEST_P(ScriptedKind, ParsesUnderItsPrintedName) {
  const FaultKind kind = GetParam();
  const std::string token = std::string(to_string(kind)) + "@12.5:n3";
  const auto parsed = parse_faults(token);
  ASSERT_TRUE(parsed.has_value()) << token;
  ASSERT_EQ(parsed->script.size(), 1u);
  EXPECT_EQ(parsed->script[0], (ScriptedFault{kind, 12.5, 3}));
}

INSTANTIATE_TEST_SUITE_P(
    FaultSpec, ScriptedKind,
    ::testing::Values(FaultKind::kCrash, FaultKind::kSpotKill,
                      FaultKind::kEcc),
    [](const ::testing::TestParamInfo<FaultKind>& param) {
      return std::string(to_string(param.param));
    });

// One row per KEY=VALUE knob of the --faults grammar.
struct KnobCase {
  const char* key;
  double FaultConfig::*field;
  double value;              // accepted, and not the default
  const char* out_of_range;  // the nearest rejected spelling
};

constexpr KnobCase kKnobs[] = {
    {"crash-rate", &FaultConfig::crash_rate, 12.0, "-1"},
    {"kill-rate", &FaultConfig::kill_rate, 40.0, "-1"},
    {"ecc-rate", &FaultConfig::ecc_rate, 15.0, "-1"},
    {"reconfig-fail", &FaultConfig::reconfig_fail_prob, 0.25, "1.01"},
    {"reboot", &FaultConfig::reboot_delay, 45.0, "0"},
    {"ecc-repair", &FaultConfig::ecc_repair_delay, 90.0, "0"},
};

class FaultKnob : public ::testing::TestWithParam<KnobCase> {};

TEST_P(FaultKnob, SetsOnlyItsOwnFieldAndRejectsOutOfRange) {
  const KnobCase& knob = GetParam();
  const std::string spec =
      std::string(knob.key) + "=" + std::to_string(knob.value);
  const auto parsed = parse_faults(spec);
  ASSERT_TRUE(parsed.has_value()) << spec;
  const FaultConfig defaults;
  for (const KnobCase& other : kKnobs) {
    const double want =
        other.field == knob.field ? knob.value : defaults.*other.field;
    EXPECT_DOUBLE_EQ((*parsed).*other.field, want) << other.key;
  }
  EXPECT_TRUE(parsed->script.empty());

  std::string error;
  const std::string bad = std::string(knob.key) + "=" + knob.out_of_range;
  EXPECT_FALSE(parse_faults(bad, &error).has_value()) << bad;
  EXPECT_NE(error.find("bad value for '" + std::string(knob.key) + "'"),
            std::string::npos)
      << error;
}

INSTANTIATE_TEST_SUITE_P(
    FaultSpec, FaultKnob, ::testing::ValuesIn(kKnobs),
    [](const ::testing::TestParamInfo<KnobCase>& param) {
      std::string name = param.param.key;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---- collector de-duplication ---------------------------------------------

workload::Batch completed_batch(BatchId id, bool strict = true) {
  workload::Batch batch;
  batch.id = id;
  batch.model = &ModelCatalog::instance().by_name("ResNet 50");
  batch.strict = strict;
  batch.count = 4;
  batch.first_arrival = 0.0;
  batch.last_arrival = 0.01;
  batch.formed_at = 0.02;
  batch.slo = strict ? 1.0 : kNeverTime;
  batch.exec_start = 0.1;
  batch.completed_at = 0.2;
  batch.solo_min = 0.05;
  batch.solo_on_slice = 0.06;
  batch.exec_time = 0.08;
  return batch;
}

TEST(CollectorDedup, SecondCompletionOfSameIdIsDiscarded) {
  metrics::Collector collector;
  collector.set_dedup(true);
  collector.record(completed_batch(7));
  collector.record(completed_batch(7));  // the hedged twin finishing later
  EXPECT_EQ(collector.strict_completed(), 4u);
  EXPECT_EQ(collector.duplicate_hedges(), 1u);
  EXPECT_EQ(collector.strict_latencies().size(), 4u);
}

TEST(CollectorDedup, ClaimedDropBlocksLaterCompletion) {
  metrics::Collector collector;
  collector.set_dedup(true);
  // The retry path drops the batch for good...
  ASSERT_TRUE(collector.claim(9));
  collector.record_dropped(/*strict=*/true, 4);
  // ...so a hedged twin completing afterwards must not count as served.
  collector.record(completed_batch(9));
  // The drop put 4 strict requests in the denominator (SLO violations by
  // definition); the twin's completion added nothing on top.
  EXPECT_EQ(collector.strict_completed(), 4u);
  EXPECT_DOUBLE_EQ(collector.slo_compliance_pct(), 0.0);
  EXPECT_TRUE(collector.strict_latencies().empty());
  EXPECT_EQ(collector.dropped(), 4u);
  EXPECT_EQ(collector.duplicate_hedges(), 1u);
  EXPECT_FALSE(collector.claim(9));  // terminal ownership is single-shot
}

TEST(CollectorDedup, OffByDefault) {
  metrics::Collector collector;
  collector.record(completed_batch(3));
  collector.record(completed_batch(3));
  EXPECT_EQ(collector.strict_completed(), 8u);  // legacy behaviour untouched
  EXPECT_EQ(collector.duplicate_hedges(), 0u);
  EXPECT_TRUE(collector.claim(3));  // claim is a no-op without dedup
  EXPECT_TRUE(collector.claim(3));
}

// ---- end-to-end fixtures ---------------------------------------------------

struct Deployment {
  sim::Simulator sim;
  std::unique_ptr<cluster::Scheduler> scheduler;
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<trace::WorkloadDriver> driver;

  Deployment(cluster::ClusterConfig config, trace::DriverConfig driver_config,
             sched::Scheme scheme = sched::Scheme::kProtean) {
    scheduler = sched::make_scheduler(scheme);
    cluster = std::make_unique<cluster::Cluster>(sim, config, *scheduler);
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

cluster::ClusterConfig faulty_cluster(const std::string& spec,
                                      std::uint32_t nodes = 2) {
  cluster::ClusterConfig config;
  config.node_count = nodes;
  const auto parsed = parse_faults(spec);
  EXPECT_TRUE(parsed.has_value()) << "spec: " << spec;
  if (parsed) config.fault = *parsed;
  return config;
}

// ---- scripted crash --------------------------------------------------------

TEST(FaultIntegration, ScriptedCrashKillsInFlightBatchesExactlyOnce) {
  auto config = faulty_cluster("crash@10:n1,reboot=5");
  Deployment d(config, small_driver());
  d.run(20.0);

  ASSERT_NE(d.cluster->injector(), nullptr);
  EXPECT_EQ(d.cluster->injector()->injected_crashes(), 1);
  const auto& collector = d.cluster->collector();
  // In-flight work was aborted and accounted exactly once.
  EXPECT_GT(d.cluster->total_lost_batches(), 0u);
  EXPECT_GT(collector.lost_requests(), 0u);
  EXPECT_EQ(collector.retries(),
            static_cast<std::uint64_t>(d.cluster->total_lost_batches()));
  // No double accounting through the legacy dropped-jobs path.
  EXPECT_EQ(d.cluster->total_dropped_jobs(), 0u);
  // With ample capacity every retried batch is eventually served: nothing
  // emitted is permanently dropped, and nothing is served twice.
  const std::uint64_t served =
      collector.strict_completed() + collector.be_completed();
  EXPECT_EQ(collector.dropped(), 0u);
  EXPECT_LE(served, d.driver->requests_emitted());
  EXPECT_NEAR(static_cast<double>(served),
              static_cast<double>(d.driver->requests_emitted()),
              0.03 * static_cast<double>(d.driver->requests_emitted()));
}

TEST(FaultIntegration, RebootRestoresCapacity) {
  auto config = faulty_cluster("crash@10:n1,reboot=5");
  Deployment d(config, small_driver(1200.0, 25.0));
  d.cluster->start();
  d.driver->start();
  d.sim.run_until(9.0);
  EXPECT_TRUE(d.cluster->node(1).up());
  d.sim.run_until(12.0);
  EXPECT_FALSE(d.cluster->node(1).up());  // crashed, still rebooting
  d.sim.run_until(16.0);
  EXPECT_TRUE(d.cluster->node(1).up());   // rebooted after 5 s
  d.sim.run_until(25.0);
  EXPECT_GT(d.cluster->node(1).batches_served(), 0u);
}

TEST(FaultIntegration, CrashInvalidatesCacheResidency) {
  auto config = faulty_cluster("crash@10:n1,reboot=5");
  config.memcache.enabled = true;
  Deployment d(config, small_driver(1200.0, 20.0));
  d.cluster->start();
  d.driver->start();
  d.sim.run_until(9.0);
  ASSERT_NE(d.cluster->node(1).cache(), nullptr);
  EXPECT_GT(d.cluster->node(1).cache()->resident_gb(), 0.0);
  d.sim.run_until(12.0);
  // Device memory died with the node: nothing is resident while it is down.
  EXPECT_EQ(d.cluster->node(1).cache()->resident_gb(), 0.0);
}

// ---- abrupt spot kill ------------------------------------------------------

TEST(FaultIntegration, SpotKillRoutesThroughMarket) {
  auto config = faulty_cluster("kill@10:n0,reboot=5", 2);
  config.market.policy = spot::ProcurementPolicy::kSpotOnly;
  config.market.spot_availability = 1.0;
  config.market.vm_boot_time = 3.0;
  Deployment d(config, small_driver(800.0, 20.0));
  d.run(20.0);
  EXPECT_EQ(d.cluster->injector()->injected_kills(), 1);
  EXPECT_GE(d.cluster->market().evictions(), 1);
}

TEST(FaultIntegration, SpotKillMissesOnDemandNodes) {
  auto config = faulty_cluster("kill@10:n0");
  // On-demand-only fleet: there is no spot VM for the kill to land on.
  config.market.policy = spot::ProcurementPolicy::kOnDemandOnly;
  Deployment d(config, small_driver(800.0, 20.0));
  d.run(20.0);
  EXPECT_EQ(d.cluster->injector()->injected_kills(), 0);
  EXPECT_EQ(d.cluster->market().evictions(), 0);
  EXPECT_TRUE(d.cluster->node(0).up());
}

// ---- ECC slice degradation -------------------------------------------------

TEST(FaultIntegration, EccDegradesGeometryAndHeals) {
  auto config = faulty_cluster("ecc@10:n0,ecc-repair=5");
  Deployment d(config, small_driver(800.0, 40.0));
  d.cluster->start();
  d.driver->start();
  d.sim.run_until(9.0);
  const std::size_t healthy = d.cluster->node(0).gpu().slices().size();
  ASSERT_GT(healthy, 1u);
  d.sim.run_until(12.0);
  EXPECT_EQ(d.cluster->injector()->injected_ecc(), 1);
  EXPECT_TRUE(d.cluster->node(0).ecc_degraded());
  EXPECT_EQ(d.cluster->node(0).gpu().slices().size(), healthy - 1);
  // After the repair delay the node reconfigures back to the healthy layout
  // (the heal drains the GPU first, so allow it a generous window).
  d.sim.run_until(40.0);
  EXPECT_FALSE(d.cluster->node(0).ecc_degraded());
  EXPECT_EQ(d.cluster->node(0).gpu().slices().size(), healthy);
}

// ---- reconfiguration timeouts ----------------------------------------------

TEST(FaultIntegration, ReconfigTimeoutsAreCountedAndRetried) {
  auto config = faulty_cluster("reconfig-fail=1.0");
  auto dc = small_driver(1500.0, 60.0);
  dc.be_schedule = {
      {0.0, &ModelCatalog::instance().by_name("DenseNet 121")},
      {40.0, &ModelCatalog::instance().by_name("ShuffleNet V2")},
  };
  Deployment d(config, dc);
  d.run(60.0);
  // Every attempt times out: failures accumulate, none complete.
  EXPECT_GT(d.cluster->total_failed_reconfigurations(), 0);
  EXPECT_EQ(d.cluster->total_reconfigurations(), 0);
}

// ---- hedging ---------------------------------------------------------------

TEST(FaultIntegration, HedgedDuplicatesAreDeduplicated) {
  auto config = faulty_cluster("crash@10:n1,reboot=5");
  config.fault.hedge.enabled = true;
  config.fault.hedge.slo_fraction = 0.01;  // hedge essentially immediately
  config.fault.hedge.floor = 0.001;
  config.fault.hedge.budget_fraction = 1.0;  // no budget: every twin launches
  Deployment d(config, small_driver());
  d.run(20.0);
  const auto& collector = d.cluster->collector();
  EXPECT_GT(collector.hedges(), 0u);
  EXPECT_GT(collector.duplicate_hedges(), 0u);
  // De-duplication holds: served requests never exceed what was emitted.
  const std::uint64_t served =
      collector.strict_completed() + collector.be_completed();
  EXPECT_LE(served + collector.dropped(), d.driver->requests_emitted());
}

// ---- determinism -----------------------------------------------------------

TEST(FaultIntegration, HazardRunsAreDeterministic) {
  auto run_once = [] {
    auto config = faulty_cluster(
        "crash-rate=90,ecc-rate=30,reconfig-fail=0.2,reboot=4,ecc-repair=5");
    Deployment d(config, small_driver(1000.0, 30.0));
    d.run(30.0);
    const auto* injector = d.cluster->injector();
    const auto& collector = d.cluster->collector();
    return std::make_tuple(
        injector->injected_crashes(), injector->injected_ecc(),
        d.cluster->total_lost_batches(), collector.lost_requests(),
        collector.retries(), collector.strict_completed(),
        collector.slo_compliance_pct());
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(FaultIntegration, DisabledFaultsLeaveRunsIdentical) {
  auto run_once = [](bool with_default_fault_struct) {
    cluster::ClusterConfig config;
    config.node_count = 2;
    if (with_default_fault_struct) config.fault = FaultConfig{};
    Deployment d(config, small_driver());
    d.run(20.0);
    return std::make_tuple(d.cluster->collector().strict_completed(),
                           d.cluster->collector().be_completed(),
                           d.cluster->collector().slo_compliance_pct(),
                           d.cluster->total_lost_batches());
  };
  EXPECT_EQ(run_once(false), run_once(true));
  EXPECT_EQ(std::get<3>(run_once(false)), 0u);
}

}  // namespace
}  // namespace protean::fault
