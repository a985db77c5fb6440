// Tests for pipeline/DAG inference workflows (src/workflow): the shape
// registry and DAG library, critical-path / budget-share math, the
// deterministic flow runtime (expansion order, fan-in joins, duplicate and
// drop handling, co-location transfer accounting), and end-to-end behaviour
// through the experiment harness, including the pipeline-conscious
// placement variant.
#include "workflow/spec.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "fault/config.h"
#include "harness/experiment.h"
#include "harness/json.h"
#include "harness/options.h"
#include "metrics/collector.h"
#include "sched/registry.h"
#include "sim/simulator.h"
#include "trace/driver.h"
#include "workflow/runtime.h"
#include "workload/model.h"

namespace protean {
namespace {

using workflow::DagShape;
using workflow::WorkflowConfig;
using workflow::WorkflowRuntime;
using workflow::WorkflowSpec;

// ---------------------------------------------------------------- registry --

TEST(DagShapeRegistry, RoundTripsEveryShape) {
  for (DagShape shape : {DagShape::kChain, DagShape::kFanout,
                         DagShape::kDiamond, DagShape::kShared}) {
    const char* name = workflow::to_string(shape);
    const auto parsed = workflow::parse_shape(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, shape) << name;
  }
}

TEST(DagShapeRegistry, RejectsUnknownNames) {
  EXPECT_FALSE(workflow::parse_shape("tree").has_value());
  EXPECT_FALSE(workflow::parse_shape("").has_value());
  EXPECT_FALSE(workflow::parse_shape("Chain ").has_value());
}

// -------------------------------------------------------------- DAG library --

WorkflowConfig config_for(DagShape shape) {
  WorkflowConfig config;
  config.enabled = true;
  config.shape = shape;
  return config;
}

TEST(WorkflowSpec, ChainTopology) {
  const WorkflowSpec spec = WorkflowSpec::build(config_for(DagShape::kChain));
  ASSERT_EQ(spec.stage_count(), 3);
  EXPECT_TRUE(spec.stage(0).inputs.empty());
  ASSERT_EQ(spec.stage(1).inputs.size(), 1u);
  EXPECT_EQ(spec.stage(1).inputs[0].pred, 0);
  ASSERT_EQ(spec.stage(2).inputs.size(), 1u);
  EXPECT_EQ(spec.stage(2).inputs[0].pred, 1);
  EXPECT_EQ(spec.sinks(), std::vector<int>({2}));
  EXPECT_EQ(spec.entry_model()->name, "MobileNet");
}

TEST(WorkflowSpec, ChainLengthIsClamped) {
  auto config = config_for(DagShape::kChain);
  config.chain_stages = 100;
  EXPECT_EQ(WorkflowSpec::build(config).stage_count(), 8);
  config.chain_stages = 1;
  EXPECT_EQ(WorkflowSpec::build(config).stage_count(), 2);
}

TEST(WorkflowSpec, FanoutTopology) {
  auto config = config_for(DagShape::kFanout);
  config.fanout_width = 3;
  const WorkflowSpec spec = WorkflowSpec::build(config);
  ASSERT_EQ(spec.stage_count(), 4);
  EXPECT_EQ(spec.successors(0), std::vector<int>({1, 2, 3}));
  EXPECT_EQ(spec.sinks(), std::vector<int>({1, 2, 3}));
}

TEST(WorkflowSpec, DiamondTopology) {
  const WorkflowSpec spec =
      WorkflowSpec::build(config_for(DagShape::kDiamond));
  ASSERT_EQ(spec.stage_count(), 4);
  EXPECT_EQ(spec.successors(0), std::vector<int>({1, 2}));
  ASSERT_EQ(spec.stage(3).inputs.size(), 2u);  // the fan-in join
  EXPECT_EQ(spec.stage(3).inputs[0].pred, 1);
  EXPECT_EQ(spec.stage(3).inputs[1].pred, 2);
  EXPECT_EQ(spec.sinks(), std::vector<int>({3}));
}

TEST(WorkflowSpec, SharedUpstreamTopology) {
  const WorkflowSpec spec = WorkflowSpec::build(config_for(DagShape::kShared));
  ASSERT_EQ(spec.stage_count(), 5);
  EXPECT_EQ(spec.successors(0), std::vector<int>({1, 3}));
  EXPECT_EQ(spec.sinks(), std::vector<int>({2, 4}));
  // Both tenant branches hang off the one shared encoder.
  EXPECT_EQ(spec.stage(1).inputs[0].pred, 0);
  EXPECT_EQ(spec.stage(3).inputs[0].pred, 0);
}

TEST(WorkflowSpec, CriticalPathSumsSoloTimesAlongHeaviestPath) {
  const WorkflowSpec chain = WorkflowSpec::build(config_for(DagShape::kChain));
  Duration sum = 0.0;
  for (int i = 0; i < chain.stage_count(); ++i) {
    sum += chain.stage(i).model->solo_time_7g;
  }
  EXPECT_DOUBLE_EQ(chain.critical_path_solo(), sum);

  const WorkflowSpec diamond =
      WorkflowSpec::build(config_for(DagShape::kDiamond));
  const Duration branch = std::max(diamond.stage(1).model->solo_time_7g,
                                   diamond.stage(2).model->solo_time_7g);
  EXPECT_DOUBLE_EQ(diamond.critical_path_solo(),
                   diamond.stage(0).model->solo_time_7g + branch +
                       diamond.stage(3).model->solo_time_7g);
  EXPECT_DOUBLE_EQ(diamond.e2e_slo(3.0), 3.0 * diamond.critical_path_solo());
}

TEST(WorkflowSpec, BudgetFractionsSumToOneAlongCriticalPath) {
  // ESG-style split: shares are positive everywhere and sum to exactly 1
  // along the RDF-weighted critical path (every chain stage is on it).
  const WorkflowSpec chain = WorkflowSpec::build(config_for(DagShape::kChain));
  double sum = 0.0;
  for (int i = 0; i < chain.stage_count(); ++i) {
    EXPECT_GT(chain.budget_fraction(i), 0.0);
    sum += chain.budget_fraction(i);
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(WorkflowSpec, HopSecondsIsBandwidthPlusFixedLatency) {
  auto config = config_for(DagShape::kChain);
  config.transfer_mb = 512.0;
  config.bw_gbps = 8.0;
  config.hop_latency = 0.004;
  const WorkflowSpec spec = WorkflowSpec::build(config);
  EXPECT_DOUBLE_EQ(spec.hop_seconds(512.0), 0.5 / 8.0 + 0.004);
  // Zero-size edges still pay the fixed per-hop latency.
  EXPECT_DOUBLE_EQ(spec.hop_seconds(0.0), 0.004);
}

// ------------------------------------------------------------- flow runtime --

class RuntimeFixture {
 public:
  explicit RuntimeFixture(DagShape shape, bool pipeline_budget = false)
      : runtime_(sim_, config_for(shape), collector_, nullptr,
                 /*slo_multiplier=*/3.0, pipeline_budget) {}

  /// A sealed strict gateway batch addressed to the entry model.
  workload::Batch entry_batch(BatchId id = 7, int count = 4) {
    workload::Batch batch;
    batch.id = id;
    batch.model = runtime_.spec().entry_model();
    batch.strict = true;
    batch.count = count;
    batch.first_arrival = 1.0;
    batch.last_arrival = 1.2;
    batch.formed_at = 1.2;
    return batch;
  }

  /// Marks `batch` served on `node` and feeds it back through the runtime.
  std::vector<workload::Batch> complete(workload::Batch batch, NodeId node,
                                        SimTime at) {
    batch.node = node;
    batch.exec_start = at - 0.01;
    batch.completed_at = at;
    batch.exec_time = 0.01;
    return runtime_.on_stage_complete(batch);
  }

  sim::Simulator sim_;
  metrics::Collector collector_;
  WorkflowRuntime runtime_;
};

TEST(WorkflowRuntime, AdmitConvertsEntryBatchInPlace) {
  RuntimeFixture f(DagShape::kChain);
  workload::Batch batch = f.entry_batch(/*id=*/42);
  ASSERT_TRUE(f.runtime_.admit(batch));
  EXPECT_EQ(batch.flow, 42u);
  EXPECT_EQ(batch.stage, 0);
  EXPECT_GE(batch.id, std::uint64_t{1} << 62);  // stage-id range
  EXPECT_DOUBLE_EQ(batch.slo, f.runtime_.stage_slo(0));
  EXPECT_EQ(f.runtime_.flows_admitted(), 1u);
}

TEST(WorkflowRuntime, AdmitIgnoresForeignAndStageBatches) {
  RuntimeFixture f(DagShape::kChain);
  workload::Batch be = f.entry_batch();
  be.strict = false;
  EXPECT_FALSE(f.runtime_.admit(be));

  workload::Batch other = f.entry_batch();
  other.model = &workload::ModelCatalog::instance().by_name("ResNet 50");
  EXPECT_FALSE(f.runtime_.admit(other));

  workload::Batch stage = f.entry_batch();
  ASSERT_TRUE(f.runtime_.admit(stage));
  EXPECT_FALSE(f.runtime_.admit(stage));  // re-dispatch passes through
  EXPECT_EQ(f.runtime_.flows_admitted(), 1u);
}

TEST(WorkflowRuntime, ChainExpandsOneStageAtATimeInOrder) {
  RuntimeFixture f(DagShape::kChain);
  workload::Batch batch = f.entry_batch();
  ASSERT_TRUE(f.runtime_.admit(batch));

  auto ready = f.complete(batch, /*node=*/2, /*at=*/1.5);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].stage, 1);
  EXPECT_EQ(ready[0].flow, batch.flow);
  EXPECT_TRUE(ready[0].has_pred);
  EXPECT_EQ(ready[0].pred_node, 2u);
  EXPECT_EQ(ready[0].count, batch.count);
  EXPECT_DOUBLE_EQ(ready[0].formed_at, f.sim_.now());

  auto tail = f.complete(ready[0], /*node=*/3, /*at=*/1.6);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].stage, 2);
  EXPECT_EQ(tail[0].pred_node, 3u);

  EXPECT_TRUE(f.complete(tail[0], /*node=*/3, /*at=*/1.7).empty());
  EXPECT_EQ(f.runtime_.flows_completed(), 1u);
  EXPECT_EQ(f.collector_.flows_recorded(), 1u);
  EXPECT_EQ(f.collector_.stages_recorded(), 3u);
  // The flow's end-to-end requests were recorded exactly once.
  EXPECT_EQ(f.collector_.strict_completed(), 4u);
}

TEST(WorkflowRuntime, DiamondJoinWaitsForBothBranches) {
  RuntimeFixture f(DagShape::kDiamond);
  workload::Batch batch = f.entry_batch();
  ASSERT_TRUE(f.runtime_.admit(batch));

  auto branches = f.complete(batch, /*node=*/0, /*at=*/1.5);
  ASSERT_EQ(branches.size(), 2u);  // s1 and s2, in successor order
  EXPECT_EQ(branches[0].stage, 1);
  EXPECT_EQ(branches[1].stage, 2);

  // First branch in: the join must keep waiting.
  EXPECT_TRUE(f.complete(branches[0], /*node=*/1, /*at=*/1.6).empty());
  EXPECT_EQ(f.runtime_.flows_completed(), 0u);

  // Second branch completes later, on node 2 — it is the critical
  // predecessor, so the join batch's unpaid edge points at node 2.
  auto join = f.complete(branches[1], /*node=*/2, /*at=*/1.8);
  ASSERT_EQ(join.size(), 1u);
  EXPECT_EQ(join[0].stage, 3);
  EXPECT_TRUE(join[0].has_pred);
  EXPECT_EQ(join[0].pred_node, 2u);

  EXPECT_TRUE(f.complete(join[0], /*node=*/2, /*at=*/1.9).empty());
  EXPECT_EQ(f.runtime_.flows_completed(), 1u);
  EXPECT_EQ(f.collector_.strict_completed(), 4u);  // counted once, not per stage
}

TEST(WorkflowRuntime, DuplicateStageCompletionIsIgnored) {
  RuntimeFixture f(DagShape::kChain);
  workload::Batch batch = f.entry_batch();
  ASSERT_TRUE(f.runtime_.admit(batch));
  auto first = f.complete(batch, 0, 1.5);
  ASSERT_EQ(first.size(), 1u);
  // A raced duplicate of the same stage (retry twin) must not re-expand.
  EXPECT_TRUE(f.complete(batch, 1, 1.55).empty());
  EXPECT_EQ(f.collector_.stages_recorded(), 1u);
}

TEST(WorkflowRuntime, RetriedStageRejoinsWithoutRerunningPredecessors) {
  // Fault path: a lost stage batch is re-dispatched by the cluster; the
  // runtime's per-flow state keeps the completed predecessors, so only the
  // lost stage runs again and its fresh completion still joins correctly.
  RuntimeFixture f(DagShape::kDiamond);
  workload::Batch batch = f.entry_batch();
  ASSERT_TRUE(f.runtime_.admit(batch));
  auto branches = f.complete(batch, 0, 1.5);
  ASSERT_EQ(branches.size(), 2u);
  ASSERT_TRUE(f.complete(branches[0], 1, 1.6).empty());

  // branches[1] is lost in flight and retried; the retry completes late.
  workload::Batch retry = branches[1];
  retry.attempts = 1;
  auto join = f.complete(retry, 3, 2.5);
  ASSERT_EQ(join.size(), 1u);
  EXPECT_EQ(join[0].stage, 3);
  // s0 and s1 were not re-expanded by the retry.
  EXPECT_EQ(f.collector_.stages_recorded(), 3u);
}

TEST(WorkflowRuntime, DropKillsTheFlowExactlyOnce) {
  RuntimeFixture f(DagShape::kDiamond);
  workload::Batch batch = f.entry_batch(/*id=*/9, /*count=*/5);
  ASSERT_TRUE(f.runtime_.admit(batch));
  auto branches = f.complete(batch, 0, 1.5);
  ASSERT_EQ(branches.size(), 2u);

  EXPECT_EQ(f.runtime_.on_stage_dropped(branches[0]), 5);
  // The parallel branch dying later finds the flow already dead.
  EXPECT_EQ(f.runtime_.on_stage_dropped(branches[1]), 0);
  EXPECT_EQ(f.runtime_.flows_dropped(), 1u);
  // And a late completion of the surviving branch cannot resurrect it.
  EXPECT_TRUE(f.complete(branches[1], 1, 1.9).empty());
  EXPECT_EQ(f.runtime_.flows_completed(), 0u);
}

TEST(WorkflowRuntime, PayHopIsFreeOnlyWhenCoLocated) {
  RuntimeFixture f(DagShape::kChain);
  workload::Batch batch = f.entry_batch();
  ASSERT_TRUE(f.runtime_.admit(batch));
  auto ready = f.complete(batch, /*node=*/2, /*at=*/1.5);
  ASSERT_EQ(ready.size(), 1u);

  EXPECT_DOUBLE_EQ(f.runtime_.pay_hop(ready[0], /*dest=*/2), 0.0);
  EXPECT_EQ(f.runtime_.colocated_hops(), 1u);
  EXPECT_DOUBLE_EQ(f.runtime_.transfer_seconds(), 0.0);

  const Duration hop = f.runtime_.pay_hop(ready[0], /*dest=*/1);
  EXPECT_DOUBLE_EQ(hop, f.runtime_.spec().hop_seconds(ready[0].edge_mb));
  EXPECT_GT(hop, 0.0);
  EXPECT_EQ(f.runtime_.transfer_hops(), 1u);
  EXPECT_DOUBLE_EQ(f.runtime_.transfer_seconds(), hop);
}

TEST(WorkflowRuntime, PipelineBudgetSplitsWhereGreedyDoesNot) {
  RuntimeFixture greedy(DagShape::kChain, /*pipeline_budget=*/false);
  RuntimeFixture pipe(DagShape::kChain, /*pipeline_budget=*/true);
  // Greedy hands every stage the full end-to-end budget.
  EXPECT_DOUBLE_EQ(greedy.runtime_.stage_slo(1), greedy.runtime_.flow_slo());
  // The pipeline split assigns each stage its ESG share, all under e2e.
  double total = 0.0;
  for (int i = 0; i < pipe.runtime_.spec().stage_count(); ++i) {
    EXPECT_LT(pipe.runtime_.stage_slo(i), pipe.runtime_.flow_slo());
    total += pipe.runtime_.stage_slo(i);
  }
  EXPECT_NEAR(total, pipe.runtime_.flow_slo(), 1e-9);
}

// ------------------------------------------------------ harness integration --

harness::ExperimentConfig small_config() {
  harness::ExperimentConfig config =
      harness::primary_config("ResNet 50", /*horizon=*/20.0);
  config.warmup = 10.0;
  config.trace.target_rps = 600.0;
  config.cluster.node_count = 4;
  return config;
}

WorkflowConfig workflow_config(DagShape shape) {
  WorkflowConfig config;
  config.enabled = true;
  config.shape = shape;
  return config;
}

TEST(WorkflowIntegration, ChainRunServesAndReportsEndToEnd) {
  auto config =
      small_config().with_workflow(workflow_config(DagShape::kChain));
  const harness::Report report = harness::run_experiment(config);
  ASSERT_TRUE(report.workflow.enabled);
  EXPECT_EQ(report.workflow.shape, "chain");
  EXPECT_EQ(report.workflow.stages, 3);
  EXPECT_GT(report.workflow.flows_admitted, 0u);
  EXPECT_GT(report.workflow.flows_completed, 0u);
  EXPECT_EQ(report.workflow.stage_batches,
            3 * report.workflow.flows_completed);
  // The reported SLO spans the whole DAG, and completions are end-user
  // requests (flows × batch fill), never per-stage counts.
  const WorkflowSpec spec =
      WorkflowSpec::build(workflow_config(DagShape::kChain));
  EXPECT_NEAR(report.slo_ms, 3000.0 * spec.critical_path_solo(), 1e-6);
  EXPECT_NEAR(report.min_possible_ms, 1000.0 * spec.critical_path_solo(),
              1e-6);
  EXPECT_EQ(report.strict_model, spec.entry_model()->name);
  EXPECT_GT(report.workflow.e2e_p99_ms, report.workflow.e2e_p50_ms * 0.99);
}

TEST(WorkflowIntegration, DisabledWorkflowReportAndJsonAreAbsent) {
  const harness::Report report = harness::run_experiment(small_config());
  EXPECT_FALSE(report.workflow.enabled);
  const std::string json =
      harness::reports_to_json(small_config(), {report}).dump(2);
  EXPECT_EQ(json.find("workflow"), std::string::npos);
}

TEST(WorkflowIntegration, RepeatRunsAreDeterministic) {
  for (DagShape shape : {DagShape::kDiamond, DagShape::kShared}) {
    auto config = small_config()
                      .with_workflow(workflow_config(shape))
                      .with_scheme(sched::Scheme::kProteanPipe);
    const harness::Report a = harness::run_experiment(config);
    const harness::Report b = harness::run_experiment(config);
    EXPECT_EQ(a.workflow.flows_completed, b.workflow.flows_completed);
    EXPECT_EQ(a.workflow.transfer_hops, b.workflow.transfer_hops);
    EXPECT_EQ(a.strict_completed, b.strict_completed);
    EXPECT_DOUBLE_EQ(a.slo_compliance_pct, b.slo_compliance_pct);
    EXPECT_DOUBLE_EQ(a.cost_usd, b.cost_usd);
  }
}

TEST(WorkflowIntegration, SingleNodeClusterPaysNoTransfers) {
  auto config = small_config().with_workflow(workflow_config(DagShape::kChain));
  config.cluster.node_count = 1;
  config.trace.target_rps = 200.0;
  const harness::Report report = harness::run_experiment(config);
  EXPECT_GT(report.workflow.flows_completed, 0u);
  EXPECT_EQ(report.workflow.transfer_hops, 0u);
  EXPECT_DOUBLE_EQ(report.workflow.transfer_seconds, 0.0);
  EXPECT_GT(report.workflow.colocated_hops, 0u);
}

TEST(WorkflowIntegration, FaultsComposeWithWorkflows) {
  auto config =
      small_config().with_workflow(workflow_config(DagShape::kDiamond));
  config.cluster.fault.enabled = true;
  config.cluster.fault.script = {
      *fault::parse_scripted_fault("crash@12:n1"),
      *fault::parse_scripted_fault("crash@15:n2"),
  };
  const harness::Report report = harness::run_experiment(config);
  EXPECT_TRUE(report.faults.enabled);
  EXPECT_EQ(report.faults.injected_crashes, 2u);
  EXPECT_GT(report.workflow.flows_completed, 0u);
  // Dropped flows (if any) count end-user requests, bounded by admissions.
  EXPECT_LE(report.workflow.flows_dropped +
                report.workflow.flows_completed,
            report.workflow.flows_admitted);
}

// Runs a protean_sim flag set through a hand-built deployment (the
// run_experiment wiring, minus reporting) and checks every strict batch
// record the collector kept: a flow's Fig. 6 lanes are the fold of its
// critical chain, so they sum to its end-to-end latency. Summing every
// stage's components instead overshoots on any DAG with parallel branches.
// Best-effort records keep no lanes; their decompositions are covered by
// the negative-lane count.
void expect_flow_lanes_sum_to_latency(const std::vector<std::string>& cli) {
  const harness::CliParseResult parsed = harness::parse_cli(cli);
  ASSERT_TRUE(parsed.options.has_value()) << parsed.error;
  const harness::ExperimentConfig& config = parsed.options->config;
  sim::Simulator sim;
  auto scheduler = sched::make_scheduler(parsed.options->schemes.front());
  cluster::Cluster deployment(sim, config.cluster, *scheduler);
  deployment.collector().set_measure_from(config.warmup);
  const WorkflowSpec spec = WorkflowSpec::build(config.cluster.workflow);
  trace::DriverConfig dc;
  dc.trace = config.trace;
  dc.strict_model = spec.entry_model();
  dc.strict_fraction = config.strict_fraction;
  dc.seed = config.seed;
  dc.count_from = config.warmup;
  trace::WorkloadDriver driver(sim, dc, deployment.sink());
  deployment.start();
  driver.start();
  sim.run_until(config.trace.horizon);
  deployment.flush_gateways();
  sim.run_until(config.trace.horizon + config.drain_grace);

  const metrics::Collector& collector = deployment.collector();
  // Strict requests all enter the DAG, so strict records are flows.
  const metrics::BatchRecords records = collector.batch_records();
  const std::uint64_t flows = records.strict.size();
  ASSERT_EQ(records.lanes.size(), records.strict.size()) << cli[1];
  for (std::size_t i = 0; i < records.strict.size(); ++i) {
    EXPECT_NEAR(records.lanes[i].total(), records.strict[i].worst_latency,
                1e-9)
        << cli[1] << " flow record " << i;
  }
  EXPECT_GT(flows, 0u) << cli[1];
  EXPECT_EQ(flows, collector.flows_recorded()) << cli[1];
  EXPECT_EQ(collector.negative_component_clamps(), 0u) << cli[1];
  deployment.stop();
}

TEST(WorkflowIntegration, FlowBreakdownLanesSumToFlowLatency) {
  expect_flow_lanes_sum_to_latency(
      {"--workflow", "diamond", "--horizon", "30"});
  expect_flow_lanes_sum_to_latency(
      {"--workflow", "fanout:width=4", "--horizon", "30"});
  expect_flow_lanes_sum_to_latency(
      {"--workflow", "diamond", "--scheme", "protean-pipe", "--faults",
       "crash@10:n1,kill-rate=40", "--spot", "hybrid", "--p-rev", "0.354",
       "--horizon", "30"});
}

TEST(WorkflowIntegration, PipelineSchemeCoLocatesMoreThanGreedy) {
  // The headline claim, in miniature: with expensive inter-stage edges the
  // DAG-aware dispatcher keeps adjacent stages together, so PROTEAN-Pipe
  // pays fewer transfer hops than per-stage-greedy PROTEAN.
  auto workflow = workflow_config(DagShape::kChain);
  workflow.transfer_mb = 256.0;
  workflow.bw_gbps = 8.0;
  auto base = small_config().with_workflow(workflow);
  const harness::Report greedy =
      harness::run_experiment(base.with_scheme(sched::Scheme::kProtean));
  const harness::Report pipe =
      harness::run_experiment(base.with_scheme(sched::Scheme::kProteanPipe));
  EXPECT_EQ(pipe.scheme, "PROTEAN-Pipe");
  EXPECT_GT(pipe.workflow.colocated_hops, greedy.workflow.colocated_hops);
  EXPECT_LT(pipe.workflow.transfer_seconds, greedy.workflow.transfer_seconds);
}

}  // namespace
}  // namespace protean
