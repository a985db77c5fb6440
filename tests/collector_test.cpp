// Contract tests for the Collector's exact latency statistics: percentiles
// are selected from the per-batch latency ramps, and every percentile and
// mean must equal, bit for bit, what the per-request float store the
// collector used to keep returned. A verbatim copy of that store is the
// reference. Also: the Fig. 6 breakdown, folded from the exact
// decomposition, reproduces the clamped formulas it replaced wherever those
// formulas were well defined.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <utility>

#include "cluster/cluster.h"
#include "harness/experiment.h"
#include "metrics/collector.h"
#include "metrics/stats.h"
#include "sched/registry.h"
#include "trace/driver.h"
#include "workload/latency.h"
#include "workload/model.h"

namespace protean::metrics {
namespace {

// ---- the reference: the retired per-request float store -------------------

// Collector::ExactStore and the per-request loop of
// Collector::record_requests as they were before percentiles were selected
// from ramps, copied verbatim. `sum` folds samples[0, summed) in recording
// order; every reorder first folds the whole store.
struct ExactStore {
  std::vector<float> samples;
  double sum = 0.0;
  std::size_t summed = 0;
  std::uint64_t compliant = 0;  // requests that met `slo` in record()

  void fold() noexcept {
    for (; summed < samples.size(); ++summed) {
      sum += static_cast<double>(samples[summed]);
    }
  }
  double percentile(double p) {
    fold();
    double out = 0.0;
    select_percentiles(samples, {&p, 1}, {&out, 1});
    return out;
  }
  double mean() noexcept {
    fold();
    return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
  }
  void record(int count, double lat_first, double lat_last,
              double slo = kNeverTime) {
    for (int i = 0; i < count; ++i) {
      const double lat =
          workload::request_latency(lat_first, lat_last, i, count);
      samples.push_back(static_cast<float>(lat));
      if (workload::meets_slo(lat, slo)) ++compliant;
    }
  }
};

// The reference store of a ramp sequence, in its order.
ExactStore expanded(const LatencyRamps& ramps) {
  ExactStore store;
  for (const LatencyRamp& r : ramps.ramps()) {
    store.record(r.count, r.first, r.last);
  }
  return store;
}

std::vector<float> sorted(std::vector<float> xs) {
  std::sort(xs.begin(), xs.end());
  return xs;
}

const double kOraclePs[] = {0.0,  0.99, 10.0, 25.0, 50.0, 75.0,
                            90.0, 95.0, 99.0, 99.9, 100.0};

// Seeded batches of varied size and latency, strict and BE interleaved.
std::vector<workload::Batch> seeded_batches(int n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> wait(0.05, 1.5);
  std::uniform_int_distribution<int> size(1, 16);
  std::vector<workload::Batch> out;
  for (int i = 0; i < n; ++i) {
    workload::Batch b;
    b.id = static_cast<BatchId>(i + 1);
    b.model = &workload::ModelCatalog::instance().by_name("ResNet 50");
    b.strict = i % 3 != 0;
    b.count = size(rng);
    b.first_arrival = 0.01 * i;
    b.last_arrival = b.first_arrival + 0.02;
    b.formed_at = b.last_arrival;
    b.slo = b.strict ? 0.6 : kNeverTime;
    b.completed_at = b.last_arrival + wait(rng);
    b.exec_time = 0.05;
    b.exec_start = b.completed_at - b.exec_time;
    b.solo_min = 0.05;
    b.solo_on_slice = 0.05;
    out.push_back(b);
  }
  return out;
}

// Seeded batches with the ramp shapes the selection must get right:
// single requests, flat ramps, ramps that rise by rounding noise (up to
// 1e-9 s), 10^4-request ramps, and exact repeats of earlier batches, so
// values tie across batches. Microsecond latencies next to second-scale
// ones make the double sum round, so the mean depends on summation order.
constexpr int kShapes = 6;

std::vector<workload::Batch> edge_batches(int n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<workload::Batch> out;
  for (int i = 0; i < n; ++i) {
    if (i >= 8 && i % 8 == 0) {
      workload::Batch twin = out[static_cast<std::size_t>(i / 2)];
      twin.id = static_cast<BatchId>(i + 1);
      out.push_back(twin);
      continue;
    }
    workload::Batch b;
    b.id = static_cast<BatchId>(i + 1);
    b.model = &workload::ModelCatalog::instance().by_name("ResNet 50");
    b.strict = i % 3 != 0;
    b.first_arrival = 1.0 + 0.01 * i;
    b.completed_at = b.first_arrival + 0.05 + u(rng);
    switch (i % kShapes) {
      case 0:  // one request
        b.count = 1;
        b.last_arrival = b.first_arrival;
        break;
      case 1:  // flat: every request has the same latency
        b.count = 2 + static_cast<int>(u(rng) * 60);
        b.last_arrival = b.first_arrival;
        break;
      case 2:  // rises by rounding noise
        b.count = 2 + static_cast<int>(u(rng) * 60);
        b.last_arrival = b.first_arrival - u(rng) * 1e-9;
        break;
      case 3:  // a long falling ramp
        b.count = 10000;
        b.last_arrival = b.first_arrival + 0.2 * u(rng);
        break;
      case 4:  // microseconds
        b.count = 1 + static_cast<int>(u(rng) * 128);
        b.completed_at = b.first_arrival + 2e-6 * u(rng);
        b.last_arrival =
            b.first_arrival + (b.completed_at - b.first_arrival) * u(rng);
        break;
      default:
        b.count = 1 + static_cast<int>(u(rng) * 128);
        b.last_arrival = b.first_arrival + 0.05 * u(rng);
    }
    b.formed_at = std::max(b.first_arrival, b.last_arrival);
    b.slo = b.strict ? 0.5 : kNeverTime;
    b.exec_time = 0.01;
    b.exec_start = b.completed_at - b.exec_time;
    b.solo_min = 0.01;
    b.solo_on_slice = 0.01;
    out.push_back(b);
  }
  return out;
}

Collector filled(const std::vector<workload::Batch>& batches) {
  Collector c;
  for (const auto& b : batches) c.record(b);
  return c;
}

// The reference stores of a batch stream: per class, recording order.
struct Reference {
  ExactStore strict;
  ExactStore be;
  explicit Reference(const std::vector<workload::Batch>& batches) {
    for (const auto& b : batches) {
      (b.strict ? strict : be)
          .record(b.count, b.completed_at - b.first_arrival,
                  b.completed_at - b.last_arrival, b.slo);
    }
  }
};

void expect_matches_reference(const std::vector<workload::Batch>& batches) {
  const Collector collector = filled(batches);
  Reference ref(batches);
  ASSERT_EQ(collector.strict_latencies().size(), ref.strict.samples.size());
  ASSERT_EQ(collector.be_latencies().size(), ref.be.samples.size());
  std::vector<double> strict(std::size(kOraclePs)), be(std::size(kOraclePs));
  collector.percentiles(true, kOraclePs, strict);
  collector.percentiles(false, kOraclePs, be);
  for (std::size_t i = 0; i < std::size(kOraclePs); ++i) {
    const double p = kOraclePs[i];
    EXPECT_EQ(strict[i], ref.strict.percentile(p)) << p;
    EXPECT_EQ(be[i], ref.be.percentile(p)) << p;
    EXPECT_EQ(collector.strict_percentile(p), strict[i]) << p;
    EXPECT_EQ(percentile(collector.be_latencies(), p), be[i]) << p;
  }
  EXPECT_EQ(collector.strict_mean(), ref.strict.mean());
  EXPECT_EQ(collector.be_mean(), ref.be.mean());
  // SLO compliance: one binary search per ramp, same verdicts.
  EXPECT_EQ(collector.strict_violations(),
            ref.strict.samples.size() - ref.strict.compliant);
  if (!batches.empty()) {
    EXPECT_EQ(collector.slo_compliance_pct_for(batches[0].model),
              collector.slo_compliance_pct());
  }
}

TEST(CollectorStore, RampSelectionMatchesTheFloatStoreOnSeededBatches) {
  expect_matches_reference(seeded_batches(400, 11));
  expect_matches_reference(seeded_batches(3, 12));
}

TEST(CollectorStore, RampSelectionMatchesTheFloatStoreOnEdgeRamps) {
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    const auto batches = edge_batches(120, seed);
    expect_matches_reference(batches);
    // The same ramps taken one shape at a time, the flat and the
    // rising ones alone included.
    for (int shape = 0; shape < kShapes; ++shape) {
      std::vector<workload::Batch> only;
      for (std::size_t i = 0; i < batches.size(); ++i) {
        if (static_cast<int>(i % kShapes) == shape) {
          only.push_back(batches[i]);
        }
      }
      expect_matches_reference(only);
    }
  }
}

// One run's report, and a copy of its strict ramps taken from the run's
// collector before the report was distilled.
struct RunWithRamps {
  harness::Report report;
  LatencyRamps strict;
};

RunWithRamps run_with_ramps(const harness::ExperimentConfig& config) {
  RunWithRamps run;
  run.report = harness::run_experiment(
      config, [&run](const Collector& c) { run.strict = c.strict_latencies(); });
  return run;
}

// Checks one run's report against the reference; returns its strict
// request count.
std::size_t expect_report_matches_reference(
    const harness::ExperimentConfig& config) {
  const auto [report, strict] = run_with_ramps(config);
  ExactStore ref = expanded(strict);
  EXPECT_FALSE(ref.samples.empty()) << report.scheme;
  EXPECT_EQ(report.strict_p50_ms, to_ms(ref.percentile(50.0)))
      << report.scheme;
  EXPECT_EQ(report.strict_p99_ms, to_ms(ref.percentile(99.0)))
      << report.scheme;
  EXPECT_EQ(report.strict_mean_ms, to_ms(ref.mean())) << report.scheme;
  std::vector<double> got(std::size(kOraclePs));
  select_percentiles(strict, kOraclePs, got);
  for (std::size_t i = 0; i < std::size(kOraclePs); ++i) {
    EXPECT_EQ(got[i], ref.percentile(kOraclePs[i]))
        << report.scheme << " p" << kOraclePs[i];
  }
  // The report's table is the same selection, made in place.
  EXPECT_FALSE(report.strict_latencies.empty()) << report.scheme;
  for (const double p : harness::PercentileTable::kPs) {
    EXPECT_EQ(report.strict_latencies.at(p), ref.percentile(p))
        << report.scheme << " table p" << p;
  }
  return ref.samples.size();
}

TEST(CollectorStore, RampSelectionMatchesTheFloatStoreOnEveryScheme) {
  harness::ExperimentConfig config =
      harness::primary_config("ResNet 50", /*horizon=*/30.0);
  config.warmup = 10.0;
  config.with_latency_samples();
  for (const sched::Scheme scheme : sched::all_schemes()) {
    config.scheme = scheme;
    expect_report_matches_reference(config);
  }
  // A fleet cell with several hundred thousand strict requests, so every
  // rank is narrowed far below the band the latencies fill.
  config.scheme = sched::Scheme::kProtean;
  config.cluster.node_count = 64;
  config.trace.target_rps = 40000.0;
  EXPECT_GT(expect_report_matches_reference(config), std::size_t{1} << 18);
}

TEST(CollectorStore, QueryOrderDoesNotChangeResults) {
  const auto batches = seeded_batches(400, 11);
  Reference ref(batches);
  const Collector forward = filled(batches);
  const Collector backward = filled(batches);
  const double ps[] = {50.0, 99.0, 0.0, 100.0, 99.9, 10.0};
  for (int round = 0; round < 2; ++round) {
    for (double p : ps) {
      EXPECT_EQ(forward.strict_percentile(p), ref.strict.percentile(p)) << p;
      EXPECT_EQ(forward.be_percentile(p), ref.be.percentile(p)) << p;
    }
    for (auto it = std::rbegin(ps); it != std::rend(ps); ++it) {
      EXPECT_EQ(backward.be_percentile(*it), ref.be.percentile(*it)) << *it;
      EXPECT_EQ(backward.strict_percentile(*it), ref.strict.percentile(*it))
          << *it;
    }
    EXPECT_EQ(forward.strict_mean(), ref.strict.mean());
    EXPECT_EQ(backward.be_mean(), ref.be.mean());
  }
}

TEST(CollectorStore, RecordingAfterQueriesMatchesAFreshCollector) {
  const auto batches = seeded_batches(300, 12);
  Collector interleaved;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    interleaved.record(batches[i]);
    if (i % 50 == 0) {
      interleaved.strict_percentile(99.0);
      interleaved.be_percentile(50.0);
    }
  }
  const Collector fresh = filled(batches);
  EXPECT_EQ(interleaved.strict_mean(), fresh.strict_mean());
  EXPECT_EQ(interleaved.be_mean(), fresh.be_mean());
  for (double p : kOraclePs) {
    EXPECT_EQ(interleaved.strict_percentile(p), fresh.strict_percentile(p));
    EXPECT_EQ(interleaved.be_percentile(p), fresh.be_percentile(p));
  }
}

TEST(CollectorStore, QueriesKeepTheSampleMultiset) {
  const auto batches = seeded_batches(250, 13);
  const Collector collector = filled(batches);
  Reference ref(batches);
  const std::vector<float> strict_before = sorted(ref.strict.samples);
  const std::vector<float> be_before = sorted(ref.be.samples);
  for (double p : kOraclePs) {
    collector.strict_percentile(p);
    collector.be_percentile(p);
  }
  EXPECT_EQ(sorted(expanded(collector.strict_latencies()).samples),
            strict_before);
  EXPECT_EQ(sorted(expanded(collector.be_latencies()).samples), be_before);
}

TEST(CollectorStore, StrictLatenciesHoldEverySample) {
  const auto batches = seeded_batches(250, 14);
  const Collector collector = filled(batches);
  Reference ref(batches);
  const LatencyRamps strict = collector.strict_latencies();
  EXPECT_EQ(strict.size(), collector.strict_completed());
  EXPECT_EQ(percentile(strict, 99.0), collector.strict_percentile(99.0));
  EXPECT_EQ(sorted(expanded(strict).samples), sorted(ref.strict.samples));
  // A copy, not a hand-over: the collector still answers from its records.
  EXPECT_EQ(collector.strict_latencies().size(), strict.size());
  EXPECT_FALSE(collector.be_latencies().empty());
}

TEST(CollectorStore, KeepingSamplesLeavesReportedPercentilesUnchanged) {
  harness::ExperimentConfig config =
      harness::primary_config("ResNet 50", /*horizon=*/30.0);
  config.warmup = 10.0;
  const harness::Report without = harness::run_experiment(config);
  const auto [with, strict] = run_with_ramps(config.with_latency_samples());
  ASSERT_EQ(strict.size(), with.strict_completed);
  EXPECT_EQ(with.strict_p50_ms, without.strict_p50_ms);
  EXPECT_EQ(with.strict_p99_ms, without.strict_p99_ms);
  EXPECT_EQ(with.strict_mean_ms, without.strict_mean_ms);
  EXPECT_EQ(to_ms(percentile(strict, 99.0)), with.strict_p99_ms);
  EXPECT_EQ(to_ms(with.strict_latencies.at(99.0)), with.strict_p99_ms);
  EXPECT_EQ(to_ms(with.strict_latencies.at(50.0)), with.strict_p50_ms);
}

TEST(CollectorStore, TableAssignedFromRampsMatchesTheInPlaceTable) {
  harness::ExperimentConfig config =
      harness::primary_config("ResNet 50", /*horizon=*/30.0);
  config.warmup = 10.0;
  config.with_latency_samples();
  // Batches of ~128 requests take the ramp search; llm-fleet's BERT cell,
  // at most four per batch, the radix select.
  harness::ExperimentConfig bert = config;
  bert.strict_model = "BERT";
  bert.cluster.node_count = 16;
  bert.trace.target_rps = 200.0;
  for (const auto& cell : {config, bert}) {
    const auto [report, strict] = run_with_ramps(cell);
    ASSERT_FALSE(report.strict_latencies.empty()) << cell.strict_model;
    EXPECT_EQ(strict.size() <= 4 * strict.ramps().size(),
              cell.strict_model == "BERT")
        << cell.strict_model;
    harness::PercentileTable assigned;
    assigned = strict;
    ASSERT_FALSE(assigned.empty());
    for (const double p : harness::PercentileTable::kPs) {
      EXPECT_EQ(assigned.at(p), report.strict_latencies.at(p))
          << cell.strict_model << " p" << p;
    }
  }
  // No ramps, no table, as in a run on the sketch store.
  harness::PercentileTable none;
  none = LatencyRamps{};
  EXPECT_TRUE(none.empty());
  EXPECT_TRUE(
      harness::run_experiment(config.with_sketch_collector()).strict_latencies
          .empty());
}

// ------------------------------------------------ Fig. 6 fold vs. clamps --

// The clamped per-lane formulas the Fig. 6 breakdown used before it was
// folded from the exact decomposition, copied verbatim from the retired
// Batch accessors and Collector::record(). Kept as the reference.
double legacy_queue(const workload::Batch& b) {
  const Duration d = (b.exec_start - b.first_arrival) - b.cold_start;
  return d > 0.0 ? d : 0.0;
}
double legacy_deficiency(const workload::Batch& b) {
  const Duration d = b.solo_on_slice - b.solo_min;
  return d > 0.0 ? d : 0.0;
}
double legacy_interference(const workload::Batch& b) {
  const Duration d = b.exec_time - b.solo_on_slice - b.swap_stall;
  return d > 0.0 ? d : 0.0;
}
double legacy_swap(const workload::Batch& b) {
  return b.swap_stall > 0.0 ? b.swap_stall : 0.0;
}

Breakdown legacy_breakdown(const workload::Batch& b) {
  Breakdown out;
  out.cold = b.cold_start;
  out.queue = legacy_queue(b);
  out.min_time = b.solo_min;
  out.deficiency = legacy_deficiency(b);
  out.interference = legacy_interference(b);
  out.swap = legacy_swap(b);
  return out;
}

// Where no clamp fires and execution ends at exec_start + exec_time, the
// clamped and the exact split must agree.
bool non_degenerate(const workload::Batch& b) {
  return b.stage <= 0 &&
         (b.exec_start - b.first_arrival) - b.cold_start >= 0.0 &&
         b.solo_on_slice >= b.solo_min &&
         b.exec_time - b.solo_on_slice - b.swap_stall >= 0.0 &&
         std::abs(b.completed_at - b.exec_start - b.exec_time) <= 1e-12;
}

void expect_fold_matches_legacy(const workload::Batch& b) {
  const Breakdown exact = fold(workload::decompose(b));
  const Breakdown legacy = legacy_breakdown(b);
  EXPECT_NEAR(exact.queue, legacy.queue, 1e-12) << b.id;
  EXPECT_NEAR(exact.cold, legacy.cold, 1e-12) << b.id;
  EXPECT_NEAR(exact.min_time, legacy.min_time, 1e-12) << b.id;
  EXPECT_NEAR(exact.deficiency, legacy.deficiency, 1e-12) << b.id;
  EXPECT_NEAR(exact.interference, legacy.interference, 1e-12) << b.id;
  EXPECT_NEAR(exact.swap, legacy.swap, 1e-12) << b.id;
}

TEST(Fig6Fold, MatchesClampedFormulasOnSeededBatches) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(0.0, 0.4);
  const auto* model = &workload::ModelCatalog::instance().by_name("ResNet 50");
  for (int i = 0; i < 2000; ++i) {
    workload::Batch b;
    b.id = static_cast<BatchId>(i + 1);
    b.model = model;
    b.strict = true;
    b.count = 1 + i % 8;
    b.first_arrival = 10.0 + 0.01 * i;
    b.last_arrival = b.first_arrival + u(rng) * 0.1;
    b.formed_at = b.last_arrival + u(rng) * 0.1;
    // Retry and blackout time sit inside the pre-execution wait, which
    // the clamped formula lumped into queueing.
    b.retry_overhead = i % 5 == 0 ? u(rng) : 0.0;
    b.reconfig_blackout = i % 7 == 0 ? u(rng) : 0.0;
    b.cold_start = i % 3 == 0 ? u(rng) : 0.0;
    b.weight_load = b.cold_start * 0.6;
    b.enqueued_at = b.formed_at;
    b.exec_start = b.formed_at + b.retry_overhead + b.reconfig_blackout +
                   b.cold_start + u(rng);
    b.solo_min = 0.01 + u(rng) * 0.1;
    b.solo_on_slice = b.solo_min + (i % 2 == 0 ? u(rng) * 0.1 : 0.0);
    b.swap_stall = i % 4 == 0 ? u(rng) * 0.1 : 0.0;
    b.exec_time = b.solo_on_slice + b.swap_stall + u(rng) * 0.2;
    b.completed_at = b.exec_start + b.exec_time;
    ASSERT_TRUE(non_degenerate(b)) << i;
    expect_fold_matches_legacy(b);
  }
}

TEST(Fig6Fold, MatchesClampedFormulasOnSimulatedBatches) {
  // Every gateway batch a short run records, through the collector's own
  // decomposition tap, across every paper scheme.
  for (const auto scheme : sched::paper_schemes()) {
    sim::Simulator sim;
    auto scheduler = sched::make_scheduler(scheme);
    cluster::ClusterConfig config;
    config.node_count = 2;
    std::uint64_t compared = 0;  // outlives the deployment's hook
    cluster::Cluster deployment(sim, config, *scheduler);
    deployment.collector().set_attr_batch_hook(
        [&compared](const workload::Batch& b,
                    const workload::Decomposition& d, double, double) {
          EXPECT_NEAR(d.total(), b.worst_latency(), 1e-9) << b.id;
          if (!non_degenerate(b)) return;
          ++compared;
          expect_fold_matches_legacy(b);
        });
    trace::DriverConfig dc;
    dc.trace.kind = trace::TraceKind::kConstant;
    dc.trace.target_rps = 1200.0;
    dc.trace.horizon = 20.0;
    dc.strict_model = &workload::ModelCatalog::instance().by_name("ResNet 50");
    dc.seed = 21;
    trace::WorkloadDriver driver(sim, dc, deployment.sink());
    deployment.start();
    driver.start();
    sim.run_until(20.0);
    deployment.flush_gateways();
    sim.run_until(35.0);
    EXPECT_GT(compared, 100u) << sched::scheme_name(scheme);
    EXPECT_EQ(deployment.collector().negative_component_clamps(), 0u);
    deployment.stop();
  }
}

// ---- the chunked record store and its stream table --------------------------

// Random batches on three {model, slo} streams, more than three chunks of
// them: ResNet 50 strict at two SLOs and BERT best-effort, interleaved at
// random so the stream table's last-hit check misses often.
std::vector<workload::Batch> three_stream_batches(std::size_t n,
                                                  std::uint64_t seed) {
  const auto& catalog = workload::ModelCatalog::instance();
  const workload::ModelProfile* resnet = &catalog.by_name("ResNet 50");
  const workload::ModelProfile* bert = &catalog.by_name("BERT");
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> stream(0, 2);
  std::uniform_int_distribution<int> size(1, 16);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<workload::Batch> out;
  for (std::size_t i = 0; i < n; ++i) {
    workload::Batch b;
    b.id = static_cast<BatchId>(i + 1);
    switch (stream(rng)) {
      case 0:
        b.model = resnet;
        b.strict = true;
        b.slo = 0.6;
        break;
      case 1:
        b.model = resnet;
        b.strict = true;
        b.slo = 0.9;
        break;
      default:
        b.model = bert;
        b.strict = false;
        b.slo = kNeverTime;
    }
    b.count = size(rng);
    b.first_arrival = 0.001 * static_cast<double>(i);
    b.last_arrival = b.first_arrival + 0.05 * u(rng);
    b.formed_at = b.last_arrival;
    b.enqueued_at = b.formed_at;
    b.solo_min = 0.05;
    b.solo_on_slice = 0.05 + 0.1 * u(rng);
    b.exec_time = b.solo_on_slice + 0.3 * u(rng);
    b.exec_start = b.formed_at + 0.8 * u(rng);
    b.completed_at = b.exec_start + b.exec_time;
    out.push_back(b);
  }
  return out;
}

// One batch record as a plain struct that still carries its model and SLO.
struct PlainRecord {
  double worst = 0.0;
  double best = 0.0;
  int count = 0;
  bool strict = false;
  const workload::ModelProfile* model = nullptr;
  double slo = 0.0;
  Breakdown breakdown;
};

std::vector<PlainRecord> plain_records(
    const std::vector<workload::Batch>& batches) {
  std::vector<PlainRecord> out;
  for (const auto& b : batches) {
    out.push_back({b.completed_at - b.first_arrival,
                   b.completed_at - b.last_arrival, b.count, b.strict,
                   b.model, b.slo, fold(workload::decompose(b))});
  }
  return out;
}

bool in_model(const PlainRecord& r, const workload::ModelProfile* model) {
  return model == nullptr || r.model == model;
}

// The tail breakdown over the strict records of `model` (every model when
// null), from the plain vector.
Breakdown plain_tail(const std::vector<PlainRecord>& records,
                     const workload::ModelProfile* model, double p) {
  std::vector<float> worst;
  for (const auto& r : records) {
    if (r.strict && in_model(r, model)) {
      worst.push_back(static_cast<float>(r.worst));
    }
  }
  if (worst.empty()) return {};
  const double cutoff = percentile(std::move(worst), p);
  Breakdown sum;
  std::size_t n = 0;
  for (const auto& r : records) {
    if (r.strict && in_model(r, model) && r.worst >= cutoff - 1e-12) {
      sum += r.breakdown;
      ++n;
    }
  }
  if (n == 0) return {};
  return sum /= static_cast<double>(n);
}

void expect_same_breakdown(const Breakdown& a, const Breakdown& b) {
  EXPECT_EQ(a.queue, b.queue);
  EXPECT_EQ(a.cold, b.cold);
  EXPECT_EQ(a.min_time, b.min_time);
  EXPECT_EQ(a.deficiency, b.deficiency);
  EXPECT_EQ(a.interference, b.interference);
  EXPECT_EQ(a.swap, b.swap);
}

constexpr std::size_t kChunk = Chunked<BatchRamp>::kChunk;

TEST(CollectorRecords, ChunkedStoreMatchesAPlainVectorAcrossStreams) {
  const auto& catalog = workload::ModelCatalog::instance();
  const workload::ModelProfile* resnet = &catalog.by_name("ResNet 50");
  const workload::ModelProfile* bert = &catalog.by_name("BERT");
  // One batch in three is best-effort: both class stores span more than
  // three chunks.
  const auto batches = three_stream_batches(10 * kChunk + 1234, 31);
  const Collector collector = filled(batches);
  const std::vector<PlainRecord> records = plain_records(batches);
  const BatchRecords stored = collector.batch_records();
  ASSERT_EQ(stored.size(), records.size());
  ASSERT_GT(stored.strict.size(), 3 * kChunk);
  ASSERT_GT(stored.be.size(), 3 * kChunk);
  ASSERT_EQ(stored.lanes.size(), stored.strict.size());

  // The views: each class store holds that class's records in recording
  // order, range-for and operator[] agree, and lanes[i] is the fold of
  // strict record i's decomposition.
  std::size_t strict_i = 0, be_i = 0;
  const LatencyRamps strict_copy = collector.strict_latencies();
  const LatencyRamps be_copy = collector.be_latencies();
  auto strict_it = stored.strict.begin();
  auto be_it = stored.be.begin();
  for (const PlainRecord& r : records) {
    const std::size_t i = r.strict ? strict_i++ : be_i++;
    const Chunked<BatchRamp>& store = r.strict ? stored.strict : stored.be;
    auto& it = r.strict ? strict_it : be_it;
    ASSERT_LT(i, store.size());
    const BatchRamp& b = *it++;
    EXPECT_EQ(&b, &store[i]);
    EXPECT_EQ(b.worst_latency, r.worst);
    EXPECT_EQ(b.best_latency, r.best);
    EXPECT_EQ(b.count, r.count);
    // strict_latencies()/be_latencies() copy the ramps in the same order.
    const LatencyRamp& copied =
        (r.strict ? strict_copy : be_copy).ramps()[i];
    EXPECT_EQ(copied.first, r.worst);
    EXPECT_EQ(copied.last, r.best);
    EXPECT_EQ(copied.count, r.count);
    if (r.strict) expect_same_breakdown(stored.lanes[i], r.breakdown);
  }
  EXPECT_EQ(strict_i, stored.strict.size());
  EXPECT_EQ(be_i, stored.be.size());
  EXPECT_TRUE(strict_it == stored.strict.end());
  EXPECT_TRUE(be_it == stored.be.end());
  EXPECT_EQ(strict_copy.ramps().size(), strict_i);
  EXPECT_EQ(be_copy.ramps().size(), be_i);

  // Percentiles, per class, against the expanded float store.
  Reference ref(batches);
  std::vector<double> strict(std::size(kOraclePs)), be(std::size(kOraclePs));
  collector.percentiles(true, kOraclePs, strict);
  collector.percentiles(false, kOraclePs, be);
  for (std::size_t k = 0; k < std::size(kOraclePs); ++k) {
    EXPECT_EQ(strict[k], ref.strict.percentile(kOraclePs[k])) << kOraclePs[k];
    EXPECT_EQ(be[k], ref.be.percentile(kOraclePs[k])) << kOraclePs[k];
  }

  for (const double p : {50.0, 90.0, 99.0}) {
    expect_same_breakdown(collector.tail_breakdown(p),
                          plain_tail(records, nullptr, p));
    expect_same_breakdown(collector.tail_breakdown_for(resnet, p),
                          plain_tail(records, resnet, p));
    expect_same_breakdown(collector.tail_breakdown_for(bert, p), Breakdown{});
  }

  for (const auto* model : {resnet, bert}) {
    for (const bool strict_class : {true, false}) {
      std::vector<float> want;
      for (const auto& r : records) {
        if (r.model != model || r.strict != strict_class) continue;
        for (int k = 0; k < r.count; ++k) {
          want.push_back(static_cast<float>(
              workload::request_latency(r.worst, r.best, k, r.count)));
        }
      }
      EXPECT_EQ(collector.requests_for(model, strict_class), want.size())
          << model->name;
      std::vector<double> got(std::size(kOraclePs)),
          expected(std::size(kOraclePs));
      collector.percentiles_for(model, strict_class, kOraclePs, got);
      select_percentiles(std::span<float>(want), kOraclePs, expected);
      for (std::size_t k = 0; k < std::size(kOraclePs); ++k) {
        EXPECT_EQ(got[k], expected[k]) << model->name << " " << kOraclePs[k];
      }
    }
  }

  // Per-model compliance reads each record's own SLO from the table: the
  // two ResNet 50 streams count against 0.6 s and 0.9 s respectively.
  std::uint64_t total = 0, good = 0;
  for (const auto& r : records) {
    if (r.model != resnet || !r.strict) continue;
    for (int k = 0; k < r.count; ++k) {
      ++total;
      if (workload::meets_slo(
              workload::request_latency(r.worst, r.best, k, r.count), r.slo)) {
        ++good;
      }
    }
  }
  ASSERT_GT(good, 0u);
  ASSERT_LT(good, total);
  EXPECT_EQ(collector.slo_compliance_pct_for(resnet),
            100.0 * static_cast<double>(good) / static_cast<double>(total));
  EXPECT_EQ(collector.slo_compliance_pct_for(bert), 100.0);
  EXPECT_EQ(collector.slo_compliance_pct_for(resnet),
            collector.slo_compliance_pct());
}

// ---- in-place selection over every scope ----------------------------------

// Long ResNet 50 ramps (5 to 400 requests) and short MobileNet ramps (1 to
// 4), strict and best-effort, in shapes the in-place selection must get
// right: one-request ramps, equal-end (flat) ramps, zero-latency ramps,
// bit-identical flat ramps (ties beyond the selection window), ramps packed
// into 0.1 ms (a bracket narrowed below the window), and ordinary
// descending ramps.
std::vector<workload::Batch> scope_batches(int n, std::uint64_t seed) {
  const auto& resnet = workload::ModelCatalog::instance().by_name("ResNet 50");
  const auto& mobilenet =
      workload::ModelCatalog::instance().by_name("MobileNet");
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_int_distribution<int> long_count(5, 400);
  std::uniform_int_distribution<int> short_count(1, 4);
  std::vector<workload::Batch> out;
  for (int i = 0; i < n; ++i) {
    workload::Batch b;
    b.id = static_cast<BatchId>(i + 1);
    b.model = i % 2 == 0 ? &resnet : &mobilenet;
    b.strict = i % 3 != 0;
    b.count = b.model == &resnet ? long_count(rng) : short_count(rng);
    b.first_arrival = 1.0 + 0.001 * i;
    b.last_arrival = b.first_arrival + 0.1 * u(rng);
    b.completed_at = b.last_arrival + 0.05 + 1.5 * u(rng);
    switch (i % 6) {
      case 0:  // one request
        b.count = 1;
        break;
      case 1:  // equal ends
        b.last_arrival = b.first_arrival;
        break;
      case 2:  // zero latency
        b.last_arrival = b.first_arrival;
        b.completed_at = b.first_arrival;
        break;
      case 3:  // bit-identical flat ramps, all 0.25 s
        b.first_arrival = b.last_arrival = 1.0;
        b.completed_at = 1.25;
        break;
      case 4:  // packed into [0.5, 0.5001] s
        b.last_arrival = b.first_arrival + 1e-4 * u(rng);
        b.completed_at = b.first_arrival + 0.5001;
        break;
      default:
        break;
    }
    b.formed_at = b.last_arrival;
    b.slo = b.strict ? 0.6 : kNeverTime;
    b.exec_time = 0.0;
    b.exec_start = b.completed_at;
    b.solo_min = 0.0;
    b.solo_on_slice = 0.0;
    out.push_back(b);
  }
  return out;
}

// The float latencies of one scope's requests, in recording order.
std::vector<float> scope_floats(const std::vector<workload::Batch>& batches,
                                const workload::ModelProfile* model,
                                bool strict) {
  std::vector<float> out;
  for (const auto& b : batches) {
    if (b.strict != strict || (model != nullptr && b.model != model)) continue;
    for (int i = 0; i < b.count; ++i) {
      out.push_back(static_cast<float>(workload::request_latency(
          b.completed_at - b.first_arrival, b.completed_at - b.last_arrival, i,
          b.count)));
    }
  }
  return out;
}

TEST(CollectorStore, InPlaceSelectionMatchesTheExpandedFloatsInEveryScope) {
  const auto batches = scope_batches(3000, 41);
  const Collector collector = filled(batches);
  const auto* resnet = &workload::ModelCatalog::instance().by_name("ResNet 50");
  const auto* mobilenet =
      &workload::ModelCatalog::instance().by_name("MobileNet");
  const double ps[] = {0.0, 0.1, 50.0, 99.0, 99.9, 100.0};
  bool ramp_search = false, float_path = false;
  for (const auto* model : {resnet, mobilenet,
                            static_cast<const workload::ModelProfile*>(nullptr)}) {
    for (const bool strict : {true, false}) {
      std::vector<float> floats = scope_floats(batches, model, strict);
      std::size_t ramps = 0;
      for (const auto& b : batches) {
        if (b.strict == strict && (model == nullptr || b.model == model)) {
          ++ramps;
        }
      }
      // The selection expands ramps of four requests or fewer on average
      // and searches the rest in place; both must be covered.
      (floats.size() <= 4 * ramps ? float_path : ramp_search) = true;
      std::vector<double> want(std::size(ps)), got(std::size(ps));
      select_percentiles(std::span<float>(floats), ps, want);
      if (model == nullptr) {
        collector.percentiles(strict, ps, got);
      } else {
        collector.percentiles_for(model, strict, ps, got);
        EXPECT_EQ(collector.requests_for(model, strict), floats.size());
      }
      for (std::size_t i = 0; i < std::size(ps); ++i) {
        EXPECT_EQ(got[i], want[i])
            << (model != nullptr ? model->name : "every model")
            << (strict ? " strict p" : " best-effort p") << ps[i];
      }
    }
  }
  EXPECT_TRUE(ramp_search);
  EXPECT_TRUE(float_path);
}

TEST(CollectorRecords, RecordsStayInPlaceAsChunksAreAppended) {
  auto batches = three_stream_batches(6 * kChunk + 7, 32);
  batches[0].strict = true;
  batches[1].strict = false;
  Collector collector;
  collector.record(batches[0]);
  collector.record(batches[1]);
  const BatchRamp* first_strict = &collector.batch_records().strict[0];
  const BatchRamp* first_be = &collector.batch_records().be[0];
  const Breakdown* first_lanes = &collector.batch_records().lanes[0];
  const BatchRamp strict_copy = *first_strict;
  const BatchRamp be_copy = *first_be;
  const Breakdown lanes_copy = *first_lanes;
  for (std::size_t i = 2; i < batches.size(); ++i) collector.record(batches[i]);
  const BatchRecords stored = collector.batch_records();
  ASSERT_EQ(stored.size(), batches.size());
  ASSERT_GT(stored.be.size(), kChunk);
  EXPECT_EQ(&stored.strict[0], first_strict);
  EXPECT_EQ(&stored.be[0], first_be);
  EXPECT_EQ(&stored.lanes[0], first_lanes);
  for (const auto& [now, then] :
       {std::pair{first_strict, &strict_copy}, std::pair{first_be, &be_copy}}) {
    EXPECT_EQ(now->worst_latency, then->worst_latency);
    EXPECT_EQ(now->best_latency, then->best_latency);
    EXPECT_EQ(now->count, then->count);
    EXPECT_EQ(now->stream, then->stream);
  }
  expect_same_breakdown(*first_lanes, lanes_copy);
}

TEST(CollectorRecords, NanSloInternsOnce) {
  // A NaN SLO never equals itself, so a value comparison would intern a new
  // stream per record and overflow the 16-bit index after 65536 records.
  auto batches = three_stream_batches(70000, 33);
  for (auto& b : batches) {
    b.model = batches[0].model;
    b.strict = true;
    b.slo = std::nan("");
  }
  const Collector collector = filled(batches);
  EXPECT_EQ(collector.batch_records().size(), batches.size());
  EXPECT_EQ(collector.batch_records().strict[0].stream,
            collector.batch_records().strict[69999].stream);
}

}  // namespace
}  // namespace protean::metrics
