// End-to-end tests for span tracing through the experiment harness: the
// trace a run writes must replay to exactly the Collector aggregates for
// every scheduling scheme, repeat runs must be byte-identical, and enabling
// tracing must not perturb the simulation.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "fault/config.h"
#include "harness/experiment.h"
#include "obs/check.h"
#include "obs/trace.h"
#include "sched/registry.h"

namespace protean::harness {
namespace {

ExperimentConfig small_config() {
  // Full paper rates, short horizon (scaling the rate down instead would
  // shrink batch fill below the gateway timeout; see harness_test.cpp).
  ExperimentConfig config = primary_config("ResNet 50", /*horizon=*/20.0);
  config.warmup = 10.0;
  return config;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// The core audit: for every scheme, the union of per-GPU busy spans in the
// trace equals Gpu::busy_seconds() as summed by the harness, and lifecycle
// instants count to the Collector totals.
TEST(ObsIntegration, InvariantsHoldAcrossAllSchemes) {
  const auto schemes = sched::all_schemes();
  ASSERT_EQ(schemes.size(), 14u);
  for (sched::Scheme scheme : schemes) {
    const std::string name = sched::scheme_cli_name(scheme);
    const std::string path = temp_path("obs-" + name + ".json");
    auto config = small_config().with_scheme(scheme);
    config.trace_out.path = path;
    const Report report = run_experiment(config);
    EXPECT_GT(report.strict_completed, 0u) << name;

    std::string error;
    const auto trace = obs::parse_trace_file(path, &error);
    ASSERT_TRUE(trace.has_value()) << name << ": " << error;
    EXPECT_GT(trace->events.size(), 0u) << name;

    const auto result = obs::check_invariants(*trace);
    EXPECT_TRUE(result.ok) << name << ": "
                           << (result.failures.empty()
                                   ? std::string("(no failure text)")
                                   : result.failures.front());
    // busy_seconds must actually have been cross-checked, not skipped.
    bool busy_checked = false;
    for (const auto& line : result.checked) {
      if (line.find("busy_seconds") != std::string::npos) busy_checked = true;
    }
    EXPECT_TRUE(busy_checked) << name;
    std::remove(path.c_str());
  }
}

TEST(ObsIntegration, RepeatRunsWriteByteIdenticalTraces) {
  const std::string a = temp_path("obs-det-a.json");
  const std::string b = temp_path("obs-det-b.json");
  auto config = small_config();
  config.trace_out.path = a;
  run_experiment(config);
  config.trace_out.path = b;
  run_experiment(config);
  const std::string body_a = slurp(a);
  ASSERT_FALSE(body_a.empty());
  EXPECT_EQ(body_a, slurp(b));
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(ObsIntegration, TracingDoesNotPerturbTheRun) {
  auto config = small_config();
  const Report off = run_experiment(config);
  config.trace_out.path = temp_path("obs-perturb.json");
  const Report on = run_experiment(config);
  std::remove(config.trace_out.path.c_str());
  EXPECT_EQ(off.strict_completed, on.strict_completed);
  EXPECT_EQ(off.be_completed, on.be_completed);
  EXPECT_EQ(off.cold_starts, on.cold_starts);
  EXPECT_EQ(off.reconfigurations, on.reconfigurations);
  EXPECT_DOUBLE_EQ(off.slo_compliance_pct, on.slo_compliance_pct);
  EXPECT_DOUBLE_EQ(off.strict_p99_ms, on.strict_p99_ms);
  EXPECT_DOUBLE_EQ(off.cost_usd, on.cost_usd);
}

// With faults injected, the retry / hedge / lost instants must still count
// to the Collector totals — the fault paths are where span accounting is
// easiest to get wrong.
TEST(ObsIntegration, InvariantsHoldUnderFaults) {
  auto config = small_config();
  config.cluster.fault.enabled = true;
  config.cluster.fault.script = {
      {fault::FaultKind::kCrash, /*at=*/12.0, /*node=*/1},
      {fault::FaultKind::kEcc, /*at=*/14.0, /*node=*/2},
  };
  config.cluster.fault.hedge.enabled = true;
  const std::string path = temp_path("obs-faults.json");
  config.trace_out.path = path;
  run_experiment(config);

  std::string error;
  const auto trace = obs::parse_trace_file(path, &error);
  ASSERT_TRUE(trace.has_value()) << error;
  const auto result = obs::check_invariants(*trace);
  EXPECT_TRUE(result.ok) << (result.failures.empty()
                                 ? std::string("(no failure text)")
                                 : result.failures.front());
  std::remove(path.c_str());
}

TEST(ObsIntegration, FilterLimitsTraceToRequestedCategories) {
  auto config = small_config();
  const std::string path = temp_path("obs-filter.json");
  config.with_trace({.path = path, .categories = obs::kSched});
  run_experiment(config);

  const auto trace = obs::parse_trace_file(path);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->categories, static_cast<unsigned>(obs::kSched));
  for (const auto& e : trace->events) {
    if (e.ph == "M") continue;  // viewer labels are always allowed
    EXPECT_EQ(e.cat, "sched") << e.name;
  }
  const auto stats = obs::compute_stats(*trace);
  EXPECT_GT(stats.decisions, 0u);
  EXPECT_EQ(stats.complete_spans, 0u);
  EXPECT_EQ(stats.counter_samples, 0u);
  // Checks are skipped, not failed, for the filtered-out categories.
  EXPECT_TRUE(obs::check_invariants(*trace).ok);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace protean::harness
