// Figure 2 (Section 2.2 motivation): Simplified DLA (500 rps, batch 128)
// and ALBERT (6 rps, batch 4) co-located on a single A100, 50% strict /
// 50% best-effort each, under the five GPU sharing schemes. Reports the
// per-workload P99 latency breakdown and strict SLO compliance.
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "cluster/cluster.h"
#include "common/strfmt.h"
#include "harness/table.h"
#include "metrics/stats.h"
#include "sched/registry.h"
#include "trace/driver.h"

using namespace protean;

namespace {

constexpr Duration kHorizon = 60.0;
constexpr Duration kWarmup = 15.0;

struct Result {
  double compliance;
  double p99_ms;
  metrics::Breakdown tail;
};

Result run(sched::Scheme scheme, const workload::ModelProfile& model) {
  sim::Simulator sim;
  auto scheduler = sched::make_scheduler(scheme);
  cluster::ClusterConfig config;
  config.node_count = 1;
  // The motivation experiment pins the (4g,3g) geometry for MIG schemes
  // (Section 2.2) — the registry defaults already do; PROTEAN is not part
  // of this figure.
  cluster::Cluster deployment(sim, config, *scheduler);
  deployment.collector().set_measure_from(kWarmup);

  const auto& catalog = workload::ModelCatalog::instance();
  const auto& dla = catalog.by_name("Simplified DLA");
  const auto& albert = catalog.by_name("ALBERT");

  auto driver_for = [&](const workload::ModelProfile& m, double rps,
                        std::uint64_t seed) {
    trace::DriverConfig dc;
    dc.trace.kind = trace::TraceKind::kConstant;
    dc.trace.target_rps = rps;
    dc.trace.horizon = kHorizon;
    dc.strict_model = &m;
    dc.strict_fraction = 0.5;
    dc.be_pool = {&m};  // BE requests are the same workload, no deadline
    dc.seed = seed;
    dc.count_from = kWarmup;
    return std::make_unique<trace::WorkloadDriver>(sim, dc,
                                                   deployment.sink());
  };
  auto d1 = driver_for(dla, 500.0, 31);
  auto d2 = driver_for(albert, 6.0, 32);

  deployment.node(0).prewarm(dla, 6);
  deployment.node(0).prewarm(albert, 4);

  deployment.start();
  d1->start();
  d2->start();
  sim.run_until(kHorizon);
  deployment.gateway().flush_all();
  sim.run_until(kHorizon + 20.0);

  const auto& collector = deployment.collector();
  Result result;
  result.compliance = collector.slo_compliance_pct_for(&model);
  result.p99_ms = to_ms(metrics::percentile(
      collector.latencies_for(&model, /*strict=*/true), 99.0));
  result.tail = collector.tail_breakdown_for(&model, 99.0);
  deployment.stop();
  return result;
}

void report(const char* title, const workload::ModelProfile& model) {
  std::printf("%s — strict SLO = 3x %.0f ms ('min possible time')\n\n", title,
              to_ms(model.solo_time_7g));
  harness::Table table({"Scheme", "SLO compliance", "P99 (ms)", "Queue (ms)",
                        "Min possible (ms)", "Deficiency (ms)",
                        "Interference (ms)"});
  struct Row {
    sched::Scheme scheme;
    const char* label;
  };
  const Row rows[] = {
      {sched::Scheme::kMoleculeBeta, "No MPS or MIG"},
      {sched::Scheme::kInflessLlama, "MPS Only"},
      {sched::Scheme::kMigOnly, "MIG Only"},
      {sched::Scheme::kMpsMig, "MPS+MIG"},
      {sched::Scheme::kSmartMpsMig, "'Smart' MPS+MIG"},
  };
  for (const Row& row : rows) {
    const Result r = run(row.scheme, model);
    table.add_row({row.label, strfmt("%.2f%%", r.compliance),
                   bench::ms(r.p99_ms), bench::ms(r.tail.queue * 1e3),
                   bench::ms(r.tail.min_time * 1e3),
                   bench::ms(r.tail.deficiency * 1e3),
                   bench::ms(r.tail.interference * 1e3)});
  }
  table.print();
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf(
      "Figure 2: tail latency breakdown vs SLO compliance for the GPU\n"
      "sharing schemes (single A100; Simplified DLA @500 rps + ALBERT @6 rps"
      ",\n50/50 strict/BE each).\n\n");
  const auto& catalog = workload::ModelCatalog::instance();
  report("(a) Simplified DLA", catalog.by_name("Simplified DLA"));
  report("(b) ALBERT", catalog.by_name("ALBERT"));
  return 0;
}
