// Example: multi-tenant ML inference serving.
//
// A video platform serves two user-facing vision models with strict
// latency SLOs while a batch-analytics tenant submits best-effort
// DenseNet 121 jobs. The example deploys PROTEAN on a simulated 8×A100
// cluster, replays a diurnal trace against it, and prints a per-tenant
// service report — the workflow a platform operator would run before
// signing an SLA.
#include <cstdio>
#include <iterator>
#include <memory>

#include "cluster/cluster.h"
#include "common/strfmt.h"
#include "harness/table.h"
#include "sched/registry.h"
#include "trace/driver.h"

using namespace protean;

int main() {
  constexpr Duration kHorizon = 90.0;
  constexpr Duration kWarmup = 20.0;

  sim::Simulator sim;
  auto scheduler = sched::make_scheduler(sched::Scheme::kProtean);
  cluster::ClusterConfig config;
  config.node_count = 8;
  cluster::Cluster deployment(sim, config, *scheduler);
  deployment.collector().set_measure_from(kWarmup);

  const auto& catalog = workload::ModelCatalog::instance();
  struct Tenant {
    const char* description;
    const workload::ModelProfile* model;
    double rps;
    double strict_fraction;
  };
  const Tenant tenants[] = {
      {"thumbnail classification (user-facing)",
       &catalog.by_name("MobileNet V2"), 2200.0, 1.0},
      {"content moderation (user-facing)", &catalog.by_name("ResNet 50"),
       1600.0, 1.0},
      {"offline analytics (best effort)", &catalog.by_name("DenseNet 121"),
       1200.0, 0.0},
  };

  std::vector<std::unique_ptr<trace::WorkloadDriver>> drivers;
  std::uint64_t seed = 400;
  for (const Tenant& tenant : tenants) {
    trace::DriverConfig dc;
    dc.trace.kind = trace::TraceKind::kWiki;
    dc.trace.target_rps = tenant.rps;
    dc.trace.horizon = kHorizon;
    dc.strict_model = tenant.model;
    dc.strict_fraction = tenant.strict_fraction;
    dc.be_pool = {tenant.model};
    dc.seed = seed++;
    dc.count_from = kWarmup;
    drivers.push_back(std::make_unique<trace::WorkloadDriver>(
        sim, dc, deployment.sink()));
    for (NodeId id = 0; id < config.node_count; ++id) {
      deployment.node(id).prewarm(*tenant.model, 3);
    }
  }

  std::printf("Deploying PROTEAN on %u nodes; serving %zu tenants for %.0f s "
              "of simulated traffic...\n\n",
              config.node_count, std::size(tenants), kHorizon);

  deployment.start();
  for (auto& driver : drivers) driver->start();
  sim.run_until(kHorizon);
  deployment.gateway().flush_all();
  sim.run_until(kHorizon + 15.0);

  const auto& collector = deployment.collector();
  harness::Table table({"Tenant", "Model", "Served", "P50 (ms)", "P99 (ms)",
                        "SLO compliance"});
  for (const Tenant& tenant : tenants) {
    const bool strict = tenant.strict_fraction > 0.0;
    static constexpr double kPs[] = {50.0, 99.0};
    double p50_p99[std::size(kPs)] = {};
    collector.percentiles_for(tenant.model, strict, kPs, p50_p99);
    table.add_row(
        {tenant.description, tenant.model->name,
         strfmt("%llu", static_cast<unsigned long long>(
                            collector.requests_for(tenant.model, strict))),
         strfmt("%.0f", to_ms(p50_p99[0])), strfmt("%.0f", to_ms(p50_p99[1])),
         strict ? strfmt("%.2f%%",
                         collector.slo_compliance_pct_for(tenant.model))
                : std::string("n/a (best effort)")});
  }
  table.print();

  std::printf("\nCluster: GPU utilization %.1f%%, memory %.1f%%, "
              "%d reconfigurations, %llu cold starts\n",
              deployment.gpu_utilization_pct(),
              deployment.memory_utilization_pct(),
              deployment.total_reconfigurations(),
              static_cast<unsigned long long>(deployment.total_cold_starts()));
  std::printf("Spend this window: $%.2f (on-demand fleet reference: $%.2f)\n",
              deployment.market().total_cost(),
              deployment.market().on_demand_reference_cost());
  return 0;
}
