// Example: writing a custom scheduling policy against the public API.
//
// Implements a "LatencyGreedy" scheduler in ~40 lines: MPS on a static
// (3g,3g) geometry, every batch placed on the slice with the lowest
// predicted execution time (Eq. 1/2 via core::predicted_exec_time), strict
// batches reordered first. The example then benchmarks it against the
// shipped policies — the extension workflow a downstream user follows.
#include <cstdio>
#include <memory>

#include "cluster/cluster.h"
#include "common/strfmt.h"
#include "core/slowdown.h"
#include "harness/experiment.h"
#include "harness/table.h"
#include "trace/driver.h"

using namespace protean;

namespace {

class LatencyGreedyScheduler : public cluster::Scheduler {
 public:
  std::string name() const override { return "LatencyGreedy (custom)"; }

  gpu::Geometry initial_geometry() const override {
    return gpu::Geometry::g3_3();
  }
  bool reorder_strict_first() const override { return true; }
  std::optional<cluster::DispatchPolicy> dispatch_policy() const override {
    return cluster::DispatchPolicy::kLeastLoaded;
  }

  gpu::Slice* place(const workload::Batch& batch,
                    cluster::WorkerNode& node) override {
    gpu::Slice* best = nullptr;
    Duration best_eta = kNeverTime;
    for (gpu::Slice* slice : node.gpu().slices()) {
      if (!batch.model->fits(slice->profile())) continue;
      if (!slice->can_admit(workload::job_spec_for(batch, slice->profile()))) {
        continue;
      }
      const Duration eta = core::predicted_exec_time(*batch.model, *slice);
      if (eta < best_eta) {
        best_eta = eta;
        best = slice;
      }
    }
    return best;
  }
};

}  // namespace

int main() {
  std::printf(
      "Custom scheduler demo: LatencyGreedy (min predicted exec time on a\n"
      "static (3g,3g) geometry) vs the shipped policies, ResNet 50 service.\n\n");

  harness::ExperimentConfig config =
      harness::primary_config("ResNet 50", /*horizon=*/60.0);

  harness::Table table(
      {"Scheme", "SLO compliance", "P99 (ms)", "BE P99 (ms)"});

  // Shipped policies go through the registry...
  for (auto scheme : {sched::Scheme::kInflessLlama, sched::Scheme::kProtean}) {
    const auto r = harness::run_experiment(config.with_scheme(scheme));
    table.add_row({r.scheme, strfmt("%.2f%%", r.slo_compliance_pct),
                   strfmt("%.0f", r.strict_p99_ms),
                   strfmt("%.0f", r.be_p99_ms)});
  }

  // ...while a custom policy plugs straight into the cluster. (The harness
  // wires trace + cluster; here we reproduce that wiring with our policy.)
  {
    sim::Simulator sim;
    LatencyGreedyScheduler scheduler;
    cluster::Cluster deployment(sim, config.cluster, scheduler);
    deployment.collector().set_measure_from(config.warmup);

    trace::DriverConfig dc;
    dc.trace = config.trace;
    dc.strict_model =
        &workload::ModelCatalog::instance().by_name(config.strict_model);
    dc.strict_fraction = config.strict_fraction;
    dc.count_from = config.warmup;
    dc.seed = config.seed;
    trace::WorkloadDriver driver(sim, dc, deployment.sink());
    for (NodeId id = 0; id < config.cluster.node_count; ++id) {
      deployment.node(id).prewarm(*dc.strict_model, 4);
      for (const auto* be : driver.be_models()) {
        deployment.node(id).prewarm(*be, 2);
      }
    }
    deployment.start();
    driver.start();
    sim.run_until(config.trace.horizon);
    deployment.gateway().flush_all();
    sim.run_until(config.trace.horizon + config.drain_grace);

    const auto& collector = deployment.collector();
    table.add_row({scheduler.name(),
                   strfmt("%.2f%%", collector.slo_compliance_pct()),
                   strfmt("%.0f", to_ms(collector.strict_percentile(99.0))),
                   strfmt("%.0f", to_ms(collector.be_percentile(99.0)))});
    deployment.stop();
  }

  table.print();
  std::printf(
      "\nLatencyGreedy holds up on this steady trace, but it ignores\n"
      "strict/BE isolation (Guideline 1) and never reconfigures: BE work\n"
      "lands next to strict work whenever a slice looks fast, and a BE\n"
      "model switch to a 14 GB footprint (see bench_paper fig7) leaves it\n"
      "stuck on (3g,3g). Try it against bench_paper fig7's schedule or the\n"
      "VHI models.\n");
  return 0;
}
