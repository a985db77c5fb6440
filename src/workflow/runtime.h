// WorkflowRuntime: deterministic DAG expansion for pipeline inference.
//
// One runtime per cluster drives every in-flight flow:
//
//  * admit() — Cluster::dispatch hands over each freshly sealed strict
//    gateway batch of the entry model; the runtime converts it in place
//    into stage 0 of a new flow (fresh stage-batch id from a high range
//    disjoint from gateway ids, per-stage SLO budget, flow bookkeeping).
//  * on_stage_complete() — the worker-node completion hook routes stage
//    batches here instead of Collector::record(). The runtime decomposes
//    the stage's latency (once, kept per stage), re-checks fan-in joins,
//    and returns the successor stage batches that became ready; the last
//    sink completion records the flow end-to-end, split along its critical
//    stage chain, through Collector::record_flow().
//  * pay_hop() — inter-stage transfer accounting: zero when the consuming
//    stage lands on its producer's node, a bandwidth + fixed-hop latency
//    otherwise (Cluster::dispatch delays the enqueue by the returned
//    amount).
//  * on_stage_dropped() — the fault path's terminal-drop hook; kills the
//    flow exactly once so parallel DAG branches cannot double-count drops,
//    while a retried (non-terminal) lost stage re-dispatches without
//    re-running completed predecessors (their results live here, not in
//    the batch).
//
// All state transitions happen inside simulation-event callbacks and no
// randomness is consumed, so workflow runs are deterministic; with the
// subsystem off no hook is installed and runs are byte-identical to a
// build without it.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "attr/attribution.h"
#include "common/types.h"
#include "metrics/collector.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "workflow/spec.h"
#include "workload/batch.h"

namespace protean::telemetry {
class Counter;
class MetricsRegistry;
class Summary;
}  // namespace protean::telemetry

namespace protean::workflow {

class WorkflowRuntime {
 public:
  /// `pipeline_budget` selects the ESG-style per-stage SLO split (the
  /// pipeline-conscious scheme); off, every stage carries the whole
  /// end-to-end budget (per-stage greedy).
  WorkflowRuntime(sim::Simulator& simulator, const WorkflowConfig& config,
                  metrics::Collector& collector, obs::Tracer* tracer,
                  double slo_multiplier, bool pipeline_budget);

  const WorkflowSpec& spec() const noexcept { return spec_; }
  /// End-to-end deadline shared by every flow (relative seconds).
  Duration flow_slo() const noexcept { return e2e_slo_; }
  /// The per-stage deadline budget assigned to stage batches.
  Duration stage_slo(int stage) const;

  /// Converts a sealed strict gateway batch of the entry model into stage 0
  /// of a new flow (mutates the batch in place); false for anything else —
  /// BE batches, other models, and already-tagged stage re-dispatches pass
  /// through untouched.
  bool admit(workload::Batch& batch);

  /// Stage completion: decomposes the stage, expands ready successors (the
  /// caller dispatches them), and records the flow when its last sink
  /// finishes. Duplicate completions (retry races) and stages of dead
  /// flows are ignored.
  std::vector<workload::Batch> on_stage_complete(const workload::Batch& batch);

  /// Terminal drop of a stage batch: kills the flow and returns the number
  /// of end-user requests to count as dropped — exactly once per flow, 0
  /// on every later branch of an already-dead flow.
  int on_stage_dropped(const workload::Batch& batch);

  /// Pays the inter-stage hop for `batch` landing on `dest`: returns 0 and
  /// counts a co-located hop when `dest` is the producing stage's node,
  /// otherwise counts a transfer hop and returns its latency.
  Duration pay_hop(const workload::Batch& batch, NodeId dest);

  /// The hop latency the pipeline-conscious dispatcher weighs against
  /// queueing when considering moving `batch` off its producer's node.
  Duration hop_cost(const workload::Batch& batch) const {
    return spec_.hop_seconds(batch.edge_mb);
  }

  void register_telemetry(telemetry::MetricsRegistry& registry);

  /// Attribution engine (nullable). When set, it identity-checks every
  /// stage's decomposition and observes every recorded flow's critical
  /// chain (observe_flow checks that it telescopes, two-sided).
  void set_attribution(attr::AttributionEngine* engine) noexcept {
    attr_ = engine;
  }

  // ---- statistics --------------------------------------------------------
  std::uint64_t flows_admitted() const noexcept { return flows_admitted_; }
  std::uint64_t flows_completed() const noexcept { return flows_completed_; }
  std::uint64_t flows_dropped() const noexcept { return flows_dropped_; }
  std::uint64_t stage_batches() const noexcept { return stages_completed_; }
  std::uint64_t colocated_hops() const noexcept { return colocated_hops_; }
  std::uint64_t transfer_hops() const noexcept { return transfer_hops_; }
  double transfer_seconds() const noexcept { return transfer_seconds_; }

 private:
  struct FlowState {
    int count = 0;
    SimTime first_arrival = 0.0;
    SimTime last_arrival = 0.0;
    bool dead = false;
    int sinks_done = 0;
    std::vector<std::uint8_t> done;
    std::vector<NodeId> node;       ///< completing node per stage
    std::vector<SimTime> finished;  ///< completion time per stage
    std::vector<workload::Decomposition> parts;  ///< split per stage
  };

  workload::Batch make_stage_batch(std::uint64_t flow, const FlowState& state,
                                   int stage);
  void finish_flow(std::uint64_t flow, FlowState& state, SimTime completed_at);
  /// The input edge from `stage`'s last-finishing predecessor (ties break
  /// toward later edge order), or null for a source stage. Its completion
  /// starts the stage's accounting span; earlier fan-in inputs overlap the
  /// wait for it and are off the critical path.
  const Edge* critical_input(const FlowState& state, int stage) const;

  sim::Simulator& sim_;
  WorkflowSpec spec_;
  metrics::Collector& collector_;
  obs::Tracer* tracer_;
  attr::AttributionEngine* attr_ = nullptr;
  Duration e2e_slo_;
  bool pipeline_budget_;
  /// Stage-batch ids live in a high range disjoint from gateway ids (which
  /// count up from 1), so flow ids and stage ids never collide in the
  /// collector's dedup seen-set.
  std::uint64_t next_stage_id_ = (std::uint64_t{1} << 62) + 1;
  std::unordered_map<std::uint64_t, FlowState> flows_;

  std::uint64_t flows_admitted_ = 0;
  std::uint64_t flows_completed_ = 0;
  std::uint64_t flows_dropped_ = 0;
  std::uint64_t stages_completed_ = 0;
  std::uint64_t colocated_hops_ = 0;
  std::uint64_t transfer_hops_ = 0;
  double transfer_seconds_ = 0.0;

  telemetry::Counter* flows_admitted_counter_ = nullptr;
  telemetry::Counter* flows_completed_counter_ = nullptr;
  telemetry::Counter* flows_dropped_counter_ = nullptr;
  telemetry::Counter* colocated_hops_counter_ = nullptr;
  telemetry::Counter* transfer_hops_counter_ = nullptr;
  telemetry::Summary* e2e_latency_summary_ = nullptr;
};

}  // namespace protean::workflow
