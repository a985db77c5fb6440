// Tests for the SLO-violation attribution engine (src/attr): the exact
// decomposition identity — every strict request's component split sums to
// its end-to-end latency — across every scheme and every interacting
// subsystem (faults, workflows, soft substrate, sharded control plane,
// memcache oversubscription), the engine == collector violation-count
// invariant, determinism, non-perturbation of attr-off runs, and the
// offline slo_explain ingestion that reproduces the report's violation
// count from each artifact kind.
#include "attr/attribution.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "attr/explain.h"
#include "fault/config.h"
#include "harness/experiment.h"
#include "harness/json.h"
#include "obs/check.h"
#include "obs/trace.h"
#include "sched/registry.h"
#include "softgpu/substrate.h"
#include "workflow/config.h"
#include "workload/model.h"

namespace protean {
namespace {

using attr::AttributionEngine;
using attr::Cause;
using attr::Decomposition;
using harness::ExperimentConfig;
using harness::Report;

// ---------------------------------------------------------------- helpers --

ExperimentConfig small_config() {
  // Full paper rates over a short horizon; see harness_test.cpp for why the
  // rate is not scaled down instead.
  ExperimentConfig config =
      harness::primary_config("ResNet 50", /*horizon=*/20.0);
  config.warmup = 10.0;
  config.cluster.attr.enabled = true;
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

// The per-run health assertions every integration test repeats: the
// accounting identity held for every observed batch, no legacy clamp fired,
// and the per-cause lanes partition the violation count exactly.
void expect_exact_accounting(const Report& report, const std::string& tag) {
  ASSERT_TRUE(report.attribution.enabled) << tag;
  EXPECT_GT(report.attribution.requests, 0u) << tag;
  EXPECT_GT(report.attribution.batches, 0u) << tag;
  EXPECT_EQ(report.attribution.identity_violations, 0u) << tag;
  EXPECT_EQ(report.attribution.negative_component_clamps, 0u) << tag;
  std::uint64_t lanes = 0;
  for (const auto& cause : report.attribution.causes) {
    lanes += cause.violations;
  }
  EXPECT_EQ(lanes, report.attribution.violations) << tag;
  if (report.attribution.violations == 0) {
    EXPECT_EQ(report.attribution.dominant_cause, "none") << tag;
  } else {
    EXPECT_NE(report.attribution.dominant_cause, "none") << tag;
  }
  // Group rows partition requests and violations too.
  std::uint64_t group_requests = 0;
  std::uint64_t group_violations = 0;
  for (const auto& group : report.attribution.groups) {
    group_requests += group.requests;
    group_violations += group.violations;
  }
  EXPECT_EQ(group_requests, report.attribution.requests) << tag;
  // Dropped strict requests carry no group (they never reached a batch
  // record), so groups may undercount violations by exactly the drop lane.
  std::uint64_t dropped = 0;
  for (const auto& cause : report.attribution.causes) {
    if (cause.cause == "dropped") dropped = cause.violations;
  }
  EXPECT_EQ(group_violations + dropped, report.attribution.violations) << tag;
}

// --------------------------------------------------------- decomposition --

workload::Batch sample_batch() {
  workload::Batch batch;
  batch.model = &workload::ModelCatalog::instance().all().front();
  batch.strict = true;
  batch.count = 4;
  batch.first_arrival = 10.0;
  batch.last_arrival = 10.2;
  batch.formed_at = 10.3;
  batch.enqueued_at = 10.3;
  batch.exec_start = 11.0;
  batch.completed_at = 12.5;
  batch.cold_start = 0.4;
  batch.weight_load = 0.25;
  batch.solo_min = 0.6;
  batch.solo_on_slice = 0.9;
  batch.exec_time = 1.3;
  batch.swap_stall = 0.1;
  batch.transfer = 0.0;
  batch.retry_overhead = 0.05;
  batch.reconfig_blackout = 0.02;
  return batch;
}

TEST(Decomposition, CauseNamesAreStableAndOrdered) {
  const std::vector<std::string> expected = {
      "formation", "queue",        "cold_boot", "weight_load",
      "swap_stall", "deficiency",  "interference", "transfer",
      "retry",      "blackout",    "service",   "dropped"};
  for (int c = 0; c < attr::kCauseCount; ++c) {
    EXPECT_EQ(attr::cause_name(static_cast<Cause>(c)), expected[c]) << c;
  }
}

TEST(Decomposition, SumsExactlyToWorstLatency) {
  const workload::Batch batch = sample_batch();
  const Decomposition d = attr::decompose(batch);
  EXPECT_NEAR(d.total(), batch.worst_latency(), 1e-12);
  EXPECT_NEAR(d[Cause::kFormation], 0.3, 1e-12);
  EXPECT_DOUBLE_EQ(d[Cause::kWeightLoad], 0.25);
  EXPECT_NEAR(d[Cause::kColdBoot], 0.15, 1e-12);
  EXPECT_DOUBLE_EQ(d[Cause::kSwapStall], 0.1);
  EXPECT_NEAR(d[Cause::kDeficiency], 0.3, 1e-12);
  EXPECT_NEAR(d[Cause::kInterference], 0.3, 1e-12);
  EXPECT_DOUBLE_EQ(d[Cause::kRetry], 0.05);
  EXPECT_DOUBLE_EQ(d[Cause::kBlackout], 0.02);
  EXPECT_DOUBLE_EQ(d[Cause::kService], 0.6);
  EXPECT_GE(d[Cause::kQueue], 0.0);
}

// Swap stalls used to be folded into the interference lane. The split must
// be lossless — the two lanes sum to the historical combined value.
TEST(Decomposition, SwapSplitPreservesCombinedInterference) {
  workload::Batch batch = sample_batch();
  const double combined = batch.exec_time - batch.solo_on_slice;
  Decomposition d = attr::decompose(batch);
  EXPECT_NEAR(d[Cause::kInterference] + d[Cause::kSwapStall], combined, 1e-12);
  EXPECT_DOUBLE_EQ(d[Cause::kSwapStall], 0.1);
  // With no swap stall the interference lane reverts to the old value.
  batch.swap_stall = 0.0;
  d = attr::decompose(batch);
  EXPECT_NEAR(d[Cause::kInterference], combined, 1e-12);
  EXPECT_DOUBLE_EQ(d[Cause::kSwapStall], 0.0);
}

TEST(Decomposition, StageBatchesSpanFromTheirOwnFormation) {
  workload::Batch batch = sample_batch();
  batch.stage = 2;
  batch.flow = 7;
  batch.formed_at = 10.8;  // stage job spawned well after gateway arrival
  const Decomposition d = attr::decompose(batch);
  // Later stages account only their own span; formation is the
  // predecessor's to account.
  EXPECT_DOUBLE_EQ(d[Cause::kFormation], 0.0);
  EXPECT_NEAR(d.total(), batch.completed_at - batch.formed_at, 1e-12);
}

TEST(Decomposition, CheckedFormCountsNegativeResiduals) {
  attr::AttrConfig config;
  config.enabled = true;
  AttributionEngine engine(config);
  workload::Batch batch = sample_batch();
  // Shrink the span below the summed components: the residual goes
  // negative, which debug builds treat as fatal and release builds count.
  batch.completed_at = batch.exec_start + 0.1;
  const Decomposition d = attr::decompose(batch);
#ifdef NDEBUG
  engine.check_identity(d);
  EXPECT_EQ(engine.identity_violations(), 1u);
#else
  EXPECT_THROW(engine.check_identity(d), std::logic_error);
  EXPECT_EQ(engine.identity_violations(), 1u);
#endif
}

TEST(Decomposition, DroppedStrictRequestsAreViolations) {
  attr::AttrConfig config;
  config.enabled = true;
  AttributionEngine engine(config);
  engine.observe_dropped(/*strict=*/true, 3);
  engine.observe_dropped(/*strict=*/false, 5);  // BE drops are not counted
  EXPECT_EQ(engine.violations(), 3u);
  EXPECT_EQ(engine.violations_for(Cause::kDropped), 3u);
  EXPECT_EQ(engine.dominant_cause(), "dropped");
}

// ----------------------------------------------------------- integration --

TEST(AttrIntegration, IdentityHoldsAcrossAllSchemes) {
  for (sched::Scheme scheme : sched::all_schemes()) {
    const std::string name = sched::scheme_cli_name(scheme);
    const Report report = run_experiment(small_config().with_scheme(scheme));
    expect_exact_accounting(report, name);
  }
}

TEST(AttrIntegration, IdentityHoldsUnderFaults) {
  auto config = small_config();
  config.cluster.fault.enabled = true;
  config.cluster.fault.script = {
      {fault::FaultKind::kCrash, /*at=*/12.0, /*node=*/1},
      {fault::FaultKind::kEcc, /*at=*/14.0, /*node=*/2},
  };
  config.cluster.fault.hedge.enabled = true;
  const Report report = run_experiment(config);
  expect_exact_accounting(report, "faults");
  EXPECT_GT(report.faults.retries + report.faults.hedges, 0u);
}

TEST(AttrIntegration, IdentityHoldsUnderWorkflows) {
  for (workflow::DagShape shape :
       {workflow::DagShape::kChain, workflow::DagShape::kDiamond}) {
    workflow::WorkflowConfig workflow;
    workflow.enabled = true;
    workflow.shape = shape;
    const Report report =
        run_experiment(small_config().with_workflow(workflow));
    expect_exact_accounting(report, workflow::to_string(shape));
    EXPECT_GT(report.workflow.flows_completed, 0u);
  }
}

TEST(AttrIntegration, IdentityHoldsOnSoftSubstrate) {
  const Report report = run_experiment(
      small_config().with_substrate(softgpu::SoftGpuConfig::soft()));
  expect_exact_accounting(report, "softgpu");
}

TEST(AttrIntegration, IdentityHoldsOnShardedControlPlane) {
  auto config = small_config();
  config.cluster.shards = 8;
  const Report report = run_experiment(config);
  expect_exact_accounting(report, "shards=8");
  // With a sharded control plane the group rows must spread across shards.
  bool nonzero_shard = false;
  for (const auto& group : report.attribution.groups) {
    if (group.shard > 0) nonzero_shard = true;
  }
  EXPECT_TRUE(nonzero_shard);
}

TEST(AttrIntegration, IdentityHoldsUnderMemcacheOversubscription) {
  auto config = small_config();
  config.cluster.memcache.enabled = true;
  config.cluster.memcache.capacity_gb = 4.0;
  config.cluster.memcache.oversubscribe = true;
  config.cluster.memcache.max_overcommit = 2.0;
  config.cluster.memcache.swap_penalty = 0.8;
  const Report report = run_experiment(config);
  expect_exact_accounting(report, "memcache");
}

// Everything at once: the acceptance scenario — faults + workflow + shards.
TEST(AttrIntegration, IdentityHoldsWithFaultsWorkflowAndShards) {
  auto config = small_config();
  config.cluster.shards = 8;
  config.cluster.fault.enabled = true;
  config.cluster.fault.script = {
      {fault::FaultKind::kCrash, /*at=*/12.0, /*node=*/1},
  };
  workflow::WorkflowConfig workflow;
  workflow.enabled = true;
  workflow.shape = workflow::DagShape::kChain;
  config.with_workflow(workflow);
  const Report report = run_experiment(config);
  expect_exact_accounting(report, "faults+workflow+shards");
}

TEST(AttrIntegration, AttributionDoesNotPerturbTheRun) {
  auto config = small_config();
  config.cluster.attr.enabled = false;
  const Report off = run_experiment(config);
  config.cluster.attr.enabled = true;
  const Report on = run_experiment(config);
  EXPECT_EQ(off.strict_completed, on.strict_completed);
  EXPECT_EQ(off.be_completed, on.be_completed);
  EXPECT_EQ(off.cold_starts, on.cold_starts);
  EXPECT_EQ(off.reconfigurations, on.reconfigurations);
  EXPECT_DOUBLE_EQ(off.slo_compliance_pct, on.slo_compliance_pct);
  EXPECT_DOUBLE_EQ(off.strict_p99_ms, on.strict_p99_ms);
  EXPECT_DOUBLE_EQ(off.cost_usd, on.cost_usd);
  EXPECT_FALSE(off.attribution.enabled);
  EXPECT_TRUE(on.attribution.enabled);
}

TEST(AttrIntegration, OffRunsOmitEveryAttributionArtifact) {
  auto config = small_config();
  config.cluster.attr.enabled = false;
  const std::string trace_path = temp_path("attr-off.json");
  config.trace_out.path = trace_path;
  const Report report = run_experiment(config);
  const std::string json =
      harness::reports_to_json(config, {report}).dump(2);
  EXPECT_EQ(json.find("attribution"), std::string::npos);
  const std::string trace = slurp(trace_path);
  EXPECT_EQ(trace.find("attr_"), std::string::npos);
  std::remove(trace_path.c_str());
}

TEST(AttrIntegration, RepeatRunsAreByteIdentical) {
  const auto config = small_config();
  const Report a = run_experiment(config);
  const Report b = run_experiment(config);
  EXPECT_EQ(harness::reports_to_json(config, {a}).dump(2),
            harness::reports_to_json(config, {b}).dump(2));
}

// Satellite audit: the obs replay must cross-check the attr counters the
// trace summary carries — per-cause lanes summing to the violation total,
// and both health counters pinned at zero.
TEST(AttrIntegration, TraceReplayAuditsAttributionCounters) {
  auto config = small_config();
  const std::string path = temp_path("attr-trace-audit.json");
  config.trace_out.path = path;
  run_experiment(config);

  std::string error;
  const auto trace = obs::parse_trace_file(path, &error);
  ASSERT_TRUE(trace.has_value()) << error;
  const auto result = obs::check_invariants(*trace);
  EXPECT_TRUE(result.ok) << (result.failures.empty()
                                 ? std::string("(no failure text)")
                                 : result.failures.front());
  bool lanes_checked = false;
  bool clamps_checked = false;
  bool identity_checked = false;
  for (const auto& line : result.checked) {
    if (line.find("attr_cause") != std::string::npos) lanes_checked = true;
    if (line.find("negative_component_clamps") != std::string::npos) {
      clamps_checked = true;
    }
    if (line.find("attr_identity") != std::string::npos) {
      identity_checked = true;
    }
  }
  EXPECT_TRUE(lanes_checked);
  EXPECT_TRUE(clamps_checked);
  EXPECT_TRUE(identity_checked);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- explain --

// A config guaranteed to violate: an SLO multiplier this tight makes any
// queueing or cold start blow the deadline.
ExperimentConfig violating_config() {
  auto config = small_config();
  config.cluster.slo_multiplier = 1.05;
  return config;
}

TEST(Explain, SniffsAllThreeSourceKinds) {
  EXPECT_EQ(attr::sniff_source(R"({"t":0,"metrics":{}})"),
            attr::SourceKind::kTelemetryJsonl);
  EXPECT_EQ(attr::sniff_source(R"({"traceEvents":[]})"),
            attr::SourceKind::kTraceJson);
  EXPECT_EQ(attr::sniff_source(R"({"runs":[]})"),
            attr::SourceKind::kRunJson);
}

TEST(Explain, RejectsMalformedInput) {
  std::vector<attr::RunExplanation> runs;
  std::string error;
  EXPECT_FALSE(attr::explain_text("not json at all", runs, error));
  EXPECT_FALSE(error.empty());
}

TEST(Explain, RunJsonReproducesTheReport) {
  const auto config = violating_config();
  const Report report = run_experiment(config);
  ASSERT_GT(report.attribution.violations, 0u);
  const std::string json =
      harness::reports_to_json(config, {report}).dump(2);

  std::vector<attr::RunExplanation> runs;
  std::string error;
  ASSERT_TRUE(attr::explain_text(json, runs, error)) << error;
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].violations, report.attribution.violations);
  EXPECT_EQ(runs[0].requests, report.attribution.requests);
  EXPECT_EQ(runs[0].dominant, report.attribution.dominant_cause);
  EXPECT_EQ(runs[0].identity_violations, 0u);
  EXPECT_EQ(runs[0].negative_clamps, 0u);
  EXPECT_FALSE(runs[0].groups.empty());
  // Causes come back ranked: non-increasing violation counts.
  for (std::size_t i = 1; i < runs[0].causes.size(); ++i) {
    EXPECT_GE(runs[0].causes[i - 1].violations, runs[0].causes[i].violations);
  }
}

// The acceptance criterion: the violation count recovered from the
// telemetry JSONL alone equals the report's exactly.
TEST(Explain, TelemetryJsonlReproducesTheViolationCount) {
  auto config = violating_config();
  const std::string path = temp_path("attr-explain.jsonl");
  telemetry::TelemetryOptions telemetry;
  telemetry.path = path;
  telemetry.interval = 2.0;
  config.with_telemetry(telemetry);
  const Report report = run_experiment(config);
  ASSERT_GT(report.attribution.violations, 0u);

  std::vector<attr::RunExplanation> runs;
  std::string error;
  ASSERT_TRUE(attr::explain_text(slurp(path), runs, error)) << error;
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].violations, report.attribution.violations);
  EXPECT_EQ(runs[0].requests, report.attribution.requests);
  EXPECT_EQ(runs[0].identity_violations, 0u);
  EXPECT_EQ(runs[0].negative_clamps, 0u);
  std::remove(path.c_str());
}

TEST(Explain, TraceSummaryReproducesTheViolationCount) {
  auto config = violating_config();
  const std::string path = temp_path("attr-explain-trace.json");
  config.trace_out.path = path;
  const Report report = run_experiment(config);
  ASSERT_GT(report.attribution.violations, 0u);

  std::vector<attr::RunExplanation> runs;
  std::string error;
  ASSERT_TRUE(attr::explain_text(slurp(path), runs, error)) << error;
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].violations, report.attribution.violations);
  EXPECT_EQ(runs[0].dominant, report.attribution.dominant_cause);
  std::remove(path.c_str());
}

// Two lanes with equal counts rank in attr::Cause order (retry before
// blackout) whichever order the artifact lists them in: the JSONL lists
// metrics by name, the run JSON and the trace here list blackout first.
TEST(Explain, TiedCausesRankInCauseOrderOnEveryArtifactKind) {
  const std::string kArtifacts[] = {
      R"({"t":5,"metrics":{"attr_requests_total":10,)"
      R"("attr_violations_total{cause=\"blackout\"}":4,)"
      R"("attr_violations_total{cause=\"queue\"}":1,)"
      R"("attr_violations_total{cause=\"retry\"}":4}})"
      "\n",
      R"({"traceEvents":[],"collector":{"attr_requests":10,)"
      R"("attr_violations":9,"attr_cause_blackout":4,)"
      R"("attr_cause_queue":1,"attr_cause_retry":4}})",
      R"({"scheme":"protean","attribution":{"requests":10,"violations":9,)"
      R"("causes":[{"cause":"blackout","violations":4},)"
      R"({"cause":"queue","violations":1},)"
      R"({"cause":"retry","violations":4}]}})",
  };
  for (const std::string& text : kArtifacts) {
    std::vector<attr::RunExplanation> runs;
    std::string error;
    ASSERT_TRUE(attr::explain_text(text, runs, error)) << error;
    ASSERT_EQ(runs.size(), 1u);
    ASSERT_EQ(runs[0].causes.size(), 3u) << text;
    EXPECT_EQ(runs[0].causes[0].cause, "retry") << text;
    EXPECT_EQ(runs[0].causes[1].cause, "blackout") << text;
    EXPECT_EQ(runs[0].causes[2].cause, "queue") << text;
    EXPECT_EQ(runs[0].violations, 9u) << text;
    EXPECT_EQ(runs[0].dominant, "retry") << text;
  }
}

TEST(Explain, RenderHonorsFiltersAndTopN) {
  attr::RunExplanation run;
  run.label = "protean";
  run.requests = 100;
  run.violations = 10;
  run.dominant = "queue";
  run.causes = {{"queue", 6, 1.5, 60.0},
                {"cold_boot", 3, 0.9, 30.0},
                {"interference", 1, 0.1, 10.0}};
  run.groups = {{"ResNet 50", 0, true, 80, 9, "queue"},
                {"ResNet 50", 1, true, 10, 1, "cold_boot"},
                {"BERT", 0, false, 10, 0, ""}};

  attr::ExplainFilter filter;
  filter.top = 2;
  filter.model = "ResNet 50";
  filter.shard = 1;
  const std::string text = attr::render_explanations({run}, filter);
  EXPECT_NE(text.find("queue"), std::string::npos);
  EXPECT_NE(text.find("cold_boot"), std::string::npos);
  // Rank 3 fell below --top 2.
  EXPECT_EQ(text.find("interference"), std::string::npos);
  // Only the shard-1 ResNet group row survives the drill-down.
  EXPECT_EQ(text.find("BERT"), std::string::npos);
  EXPECT_NE(text.find("shard 1"), std::string::npos);
}

}  // namespace
}  // namespace protean
