// Allocation budget of the steady-state event loop and dispatch path.
//
// The event heap, the dispatch index, the GPU completion path and PROTEAN's
// placement run once per batch; none of them allocates once its buffers
// have grown to the working set. This binary replaces the global operator
// new with a counting one (hence a test executable of its own) and runs a
// 64-node BERT PROTEAN cell past warm-up, then asserts fewer than a quarter
// of a heap allocation per completed batch over a steady-state window. The
// node queues and gateway grains are rings that keep their capacity, and the
// reconfigurator hands out prebuilt geometries. What remains is amortized:
// reconfigurations (a new slice grows its job buffers from empty) and one
// chunk of the collector's batch records per 4096 batches.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "cluster/cluster.h"
#include "sched/registry.h"
#include "sim/simulator.h"
#include "trace/driver.h"
#include "workload/model.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// The array, nothrow and sized forms of the default library forward to
// these two, so every allocation this program makes through new is counted.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace protean {
namespace {

std::uint64_t batches_served(cluster::Cluster& deployment) {
  std::uint64_t served = 0;
  for (NodeId id = 0; id < deployment.node_count(); ++id) {
    served += deployment.node(id).batches_served();
  }
  return served;
}

TEST(AllocationBudget, SteadyStateBertCellStaysUnderAQuarterPerBatch) {
  // llm-fleet's per-node load (12 rps of BERT, batch size 4) on 64 nodes.
  constexpr SimTime kWarm = 20.0;
  constexpr SimTime kEnd = 60.0;
  const workload::ModelProfile& bert =
      workload::ModelCatalog::instance().by_name("BERT");
  sim::Simulator sim;
  auto scheduler = sched::make_scheduler(sched::Scheme::kProtean);
  cluster::ClusterConfig config;
  config.node_count = 64;
  cluster::Cluster deployment(sim, config, *scheduler);
  trace::DriverConfig dc;
  dc.trace.kind = trace::TraceKind::kWiki;
  dc.trace.target_rps = 768.0;
  dc.trace.horizon = kEnd;
  dc.strict_model = &bert;
  dc.seed = 1;
  trace::WorkloadDriver driver(sim, dc, deployment.sink());
  // The steady state run_experiment starts from: warm containers for the
  // strict model and every BE model on every node.
  for (NodeId id = 0; id < config.node_count; ++id) {
    deployment.node(id).prewarm(bert, 4);
    for (const auto* be_model : driver.be_models()) {
      deployment.node(id).prewarm(*be_model, 2);
    }
  }
  deployment.start();
  driver.start();
  sim.run_until(kWarm);

  const std::uint64_t allocs_before = g_allocations.load();
  const std::uint64_t batches_before = batches_served(deployment);
  sim.run_until(kEnd);
  const std::uint64_t allocs = g_allocations.load() - allocs_before;
  const std::uint64_t batches = batches_served(deployment) - batches_before;

  ASSERT_GT(batches, 5000u);
  const double per_batch =
      static_cast<double>(allocs) / static_cast<double>(batches);
  RecordProperty("allocations_per_batch", std::to_string(per_batch));
  std::printf("%.3f allocations per batch (%llu over %llu)\n", per_batch,
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(batches));
  EXPECT_LT(per_batch, 0.25) << allocs << " allocations over " << batches
                            << " completed batches";
}

}  // namespace
}  // namespace protean
