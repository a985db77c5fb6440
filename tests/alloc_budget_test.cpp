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
// chunk per 4096 records of each of the collector's record stores.
//
// The same operator new also tracks the bytes live on the heap and their
// high-water mark, which bounds what the batch records take per recorded
// batch and what percentile finalization may allocate on top of them.
#include <gtest/gtest.h>
#include <malloc.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <random>
#include <string>

#include "cluster/cluster.h"
#include "harness/experiment.h"
#include "metrics/collector.h"
#include "sched/registry.h"
#include "sim/simulator.h"
#include "trace/driver.h"
#include "workload/model.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::size_t> g_live_bytes{0};
std::atomic<std::size_t> g_peak_bytes{0};
}  // namespace

// The array, nothrow and sized forms of the default library forward to
// these two, so every allocation this program makes through new is counted.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    const std::size_t bytes = malloc_usable_size(p);
    const std::size_t live = g_live_bytes.fetch_add(bytes) + bytes;
    std::size_t peak = g_peak_bytes.load();
    while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
    }
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept {
  if (p != nullptr) g_live_bytes.fetch_sub(malloc_usable_size(p));
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

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

// Heap bytes allocated through new at the high-water mark of f(), above
// the bytes live when it started.
template <typename F>
std::size_t heap_high_water(F&& f) {
  const std::size_t before = g_live_bytes.load();
  g_peak_bytes.store(before);
  f();
  return g_peak_bytes.load() - before;
}

// A collector of `records` seeded batches of `batch` requests each, two
// strict to one best-effort: latencies of 50 ms to 1.5 s, arrival spans of
// up to 100 ms.
metrics::Collector ramp_collector(int batch, int records) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(batch));
  std::uniform_real_distribution<double> wait(0.05, 1.5);
  std::uniform_real_distribution<double> span(0.0, 0.1);
  metrics::Collector collector;
  workload::Batch b;
  b.model = &workload::ModelCatalog::instance().by_name("ResNet 50");
  b.count = batch;
  for (int i = 0; i < records; ++i) {
    b.id = static_cast<BatchId>(i + 1);
    b.strict = i % 3 != 0;
    b.first_arrival = 0.001 * i;
    b.last_arrival = b.first_arrival + span(rng);
    b.formed_at = b.last_arrival;
    b.slo = b.strict ? 0.6 : kNeverTime;
    b.completed_at = b.last_arrival + wait(rng);
    b.exec_time = 0.05;
    b.exec_start = b.completed_at - b.exec_time;
    b.solo_min = 0.05;
    b.solo_on_slice = 0.05;
    collector.record(b);
  }
  return collector;
}

TEST(FinalizationBudget, PercentilesReadTheBatchRecordsInPlace) {
  // Selecting percentiles makes no copy of the records' ramps. Batch 128
  // takes the ramp search, which may allocate 16 bytes per in-scope batch
  // record and 2 MiB besides. Batch 4 takes the radix select, which keeps
  // nothing per record, only one level's histograms (16 KiB per wanted
  // prefix, and one to discard into) and its prefix table at a time. Two
  // ps measure 57,544 bytes, so 64 KiB leaves 7,992 bytes of headroom.
  constexpr int kRecords = 300000;
  constexpr std::size_t kPerRecord = 16;
  constexpr std::size_t kFixed = std::size_t{2} << 20;
  constexpr std::size_t kRadixFixed = std::size_t{64} << 10;
  static constexpr std::array<double, 2> kPs = {50.0, 99.0};
  for (const int batch : {128, 4}) {
    const metrics::Collector collector = ramp_collector(batch, kRecords);
    for (const bool strict : {true, false}) {
      const std::size_t in_scope = static_cast<std::size_t>(
          (strict ? collector.strict_completed() : collector.be_completed()) /
          static_cast<std::uint64_t>(batch));
      std::array<double, kPs.size()> out{};
      const std::size_t bytes = heap_high_water(
          [&] { collector.percentiles(strict, kPs, out); });
      const std::size_t budget =
          batch == 4 ? kRadixFixed : kPerRecord * in_scope + kFixed;
      const std::string row = "batch " + std::to_string(batch) +
                              (strict ? " strict" : " best-effort");
      RecordProperty(row, std::to_string(bytes));
      std::printf("%s: %zu bytes over %zu records (%.2f per record), budget "
                  "%zu\n",
                  row.c_str(), bytes, in_scope,
                  static_cast<double>(bytes) / static_cast<double>(in_scope),
                  budget);
      EXPECT_GT(out[1], 0.0) << row;
      EXPECT_LE(bytes, budget) << row;
    }
  }
}

TEST(FinalizationBudget, ThePercentileTableCopiesNoRecords) {
  // The report's percentile table (--json, Fig. 8) is selected from the
  // records in place, in the selection that gives the strict P50 and P99:
  // keeping it adds nothing that grows with the strict record count.
  // Copying the strict ramps for it (24 bytes per record) raises the mark
  // of this cell by 1,233,208 bytes.
  harness::ExperimentConfig config =
      harness::primary_config("BERT", /*horizon=*/160.0);
  config.cluster.node_count = 256;
  config.trace.target_rps = 3072.0;
  config.seed = 1;
  std::size_t strict_records = 0;
  const auto high_water = [&] {
    return heap_high_water([&] {
      harness::run_experiment(config, [&](const metrics::Collector& c) {
        strict_records = c.batch_records().strict.size();
      });
    });
  };
  const std::size_t without = high_water();
  config.keep_latency_samples = true;
  const std::size_t with = high_water();
  ASSERT_GE(strict_records, 50000u);
  RecordProperty("table_bytes", std::to_string(with) + " - " +
                                    std::to_string(without));
  std::printf("%zu strict records: high-water mark %zu bytes without the "
              "table, %zu with it\n",
              strict_records, without, with);
  EXPECT_LE(with, without + (std::size_t{4} << 10));
}

TEST(RecordingBudget, BatchRecordsTake72BytesStrictAnd24BestEffort) {
  // A strict batch keeps a 24-byte ramp and its 48-byte Fig. 6 lanes, a
  // best-effort batch its ramp alone. Allowed besides: one partly filled
  // chunk per store and 4 KiB for the chunk-pointer vectors and the
  // stream table.
  using metrics::BatchRamp;
  using metrics::Breakdown;
  using metrics::Chunked;
  constexpr std::size_t kChunk = Chunked<BatchRamp>::kChunk;
  constexpr std::size_t kPerClass = 3 * kChunk + 1000;
  constexpr std::size_t kPartialChunks =
      2 * kChunk * sizeof(BatchRamp) + kChunk * sizeof(Breakdown);
  constexpr std::size_t kBudget =
      (72 + 24) * kPerClass + kPartialChunks + (std::size_t{4} << 10);
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> wait(0.05, 1.5);
  workload::Batch b;
  b.model = &workload::ModelCatalog::instance().by_name("ResNet 50");
  b.count = 8;
  b.solo_min = 0.05;
  b.solo_on_slice = 0.05;
  b.exec_time = 0.05;
  std::size_t records = 0;
  const std::size_t bytes = heap_high_water([&] {
    metrics::Collector collector;
    for (std::size_t i = 0; i < 2 * kPerClass; ++i) {
      b.id = static_cast<BatchId>(i + 1);
      b.strict = i % 2 == 0;
      b.slo = b.strict ? 0.6 : kNeverTime;
      b.first_arrival = 0.001 * static_cast<double>(i);
      b.last_arrival = b.first_arrival + 0.01;
      b.formed_at = b.last_arrival;
      b.completed_at = b.last_arrival + wait(rng);
      b.exec_start = b.completed_at - b.exec_time;
      collector.record(b);
    }
    records = collector.batch_records().size();
  });
  ASSERT_EQ(records, 2 * kPerClass);
  RecordProperty("record_bytes", std::to_string(bytes));
  std::printf("%zu strict + %zu best-effort records: %zu bytes (%.2f per "
              "pair), budget %zu\n",
              kPerClass, kPerClass, bytes,
              static_cast<double>(bytes) / static_cast<double>(kPerClass),
              kBudget);
  EXPECT_LE(bytes, kBudget);
}

}  // namespace
}  // namespace protean
