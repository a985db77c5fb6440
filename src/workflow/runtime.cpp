#include "workflow/runtime.h"

#include "common/check.h"
#include "telemetry/registry.h"

namespace protean::workflow {

WorkflowRuntime::WorkflowRuntime(sim::Simulator& simulator,
                                 const WorkflowConfig& config,
                                 metrics::Collector& collector,
                                 obs::Tracer* tracer, double slo_multiplier,
                                 bool pipeline_budget)
    : sim_(simulator),
      spec_(WorkflowSpec::build(config)),
      collector_(collector),
      tracer_(tracer),
      e2e_slo_(spec_.e2e_slo(slo_multiplier)),
      pipeline_budget_(pipeline_budget) {}

Duration WorkflowRuntime::stage_slo(int stage) const {
  // ESG-style: split the end-to-end budget across stages along the
  // RDF-weighted critical path. Per-stage greedy gets the whole budget at
  // every stage — the over-commitment ESG identifies as wasted slack.
  return pipeline_budget_ ? e2e_slo_ * spec_.budget_fraction(stage)
                          : e2e_slo_;
}

bool WorkflowRuntime::admit(workload::Batch& batch) {
  if (batch.flow != 0 || !batch.strict || batch.model != spec_.entry_model()) {
    return false;
  }
  const std::uint64_t flow = batch.id;  // gateway ids are unique
  FlowState& state = flows_[flow];
  state.count = batch.count;
  state.first_arrival = batch.first_arrival;
  state.last_arrival = batch.last_arrival;
  const auto stages = static_cast<std::size_t>(spec_.stage_count());
  state.done.assign(stages, 0);
  state.node.assign(stages, 0);
  state.finished.assign(stages, 0.0);
  state.parts.assign(stages, workload::Decomposition{});
  ++flows_admitted_;
  if (flows_admitted_counter_) flows_admitted_counter_->inc();

  batch.flow = flow;
  batch.stage = 0;
  batch.id = next_stage_id_++;
  batch.slo = stage_slo(0);
  if (tracer_ != nullptr && tracer_->wants(obs::kSpans)) {
    tracer_->async_begin(obs::kSpans, "flow", flow, 0, sim_.now(),
                         {{"shape", spec_.name()},
                          {"requests", static_cast<double>(batch.count)}});
  }
  return true;
}

workload::Batch WorkflowRuntime::make_stage_batch(std::uint64_t flow,
                                                  const FlowState& state,
                                                  int stage) {
  workload::Batch batch;
  batch.id = next_stage_id_++;
  batch.model = spec_.stage(stage).model;
  batch.strict = true;
  batch.count = state.count;
  batch.first_arrival = state.first_arrival;
  batch.last_arrival = state.last_arrival;
  batch.formed_at = sim_.now();
  batch.slo = stage_slo(stage);
  batch.flow = flow;
  batch.stage = stage;
  // The hop we charge is from the critical predecessor only.
  if (const Edge* critical = critical_input(state, stage)) {
    batch.has_pred = true;
    batch.pred_node = state.node[static_cast<std::size_t>(critical->pred)];
    batch.edge_mb = critical->transfer_mb;
  }
  return batch;
}

std::vector<workload::Batch> WorkflowRuntime::on_stage_complete(
    const workload::Batch& batch) {
  std::vector<workload::Batch> ready;
  const auto it = flows_.find(batch.flow);
  if (it == flows_.end()) return ready;  // flow already closed
  FlowState& state = it->second;
  const int stage = batch.stage;
  PROTEAN_CHECK(stage >= 0 && stage < spec_.stage_count());
  const auto si = static_cast<std::size_t>(stage);
  if (state.dead || state.done[si] != 0) return ready;  // dup / dead flow

  state.done[si] = 1;
  state.node[si] = batch.node;
  state.finished[si] = batch.completed_at;
  state.parts[si] = workload::decompose(batch);
  if (attr_ != nullptr) attr_->check_identity(state.parts[si]);
  ++stages_completed_;
  collector_.record_stage(state.parts[si]);
  if (tracer_ != nullptr && tracer_->wants(obs::kSpans)) {
    tracer_->instant(obs::kSpans, "stage_done",
                     static_cast<int>(batch.node) + 1,
                     {{"flow", static_cast<double>(batch.flow)},
                      {"stage", spec_.stage(stage).name}});
  }

  // Expand every successor whose fan-in join just became complete.
  for (const int succ : spec_.successors(stage)) {
    bool join_ready = true;
    for (const Edge& edge : spec_.stage(succ).inputs) {
      if (state.done[static_cast<std::size_t>(edge.pred)] == 0) {
        join_ready = false;
        break;
      }
    }
    if (join_ready) ready.push_back(make_stage_batch(batch.flow, state, succ));
  }

  if (spec_.is_sink(stage)) {
    ++state.sinks_done;
    if (state.sinks_done == static_cast<int>(spec_.sinks().size())) {
      PROTEAN_DCHECK(ready.empty());
      finish_flow(batch.flow, state, batch.completed_at);
    }
  }
  return ready;
}

const Edge* WorkflowRuntime::critical_input(const FlowState& state,
                                            int stage) const {
  const Edge* critical = nullptr;
  SimTime latest = -1.0;
  for (const Edge& edge : spec_.stage(stage).inputs) {
    const auto pred = static_cast<std::size_t>(edge.pred);
    if (state.finished[pred] >= latest) {
      latest = state.finished[pred];
      critical = &edge;
    }
  }
  return critical;
}

void WorkflowRuntime::finish_flow(std::uint64_t flow, FlowState& state,
                                  SimTime completed_at) {
  ++flows_completed_;
  if (flows_completed_counter_) flows_completed_counter_->inc();
  metrics::FlowRecord record;
  record.id = flow;
  record.model = spec_.entry_model();
  record.strict = true;
  record.count = state.count;
  record.first_arrival = state.first_arrival;
  record.last_arrival = state.last_arrival;
  record.completed_at = completed_at;
  record.slo = e2e_slo_;
  // Walk the critical stage chain back from the last-finishing sink. Each
  // stage's accounting span starts where its critical predecessor's ended
  // (formed_at == the predecessor's completion event), so summing the
  // per-stage decompositions telescopes to the flow latency exactly.
  int stage = -1;
  SimTime latest = -1.0;
  for (const int sink : spec_.sinks()) {
    if (state.finished[static_cast<std::size_t>(sink)] >= latest) {
      latest = state.finished[static_cast<std::size_t>(sink)];
      stage = sink;
    }
  }
  PROTEAN_CHECK(stage >= 0);
  const NodeId sink_node = state.node[static_cast<std::size_t>(stage)];
  for (;;) {
    record.chain += state.parts[static_cast<std::size_t>(stage)];
    const Edge* pred = critical_input(state, stage);
    if (pred == nullptr) break;
    stage = pred->pred;
  }
  if (collector_.record_flow(record) && attr_ != nullptr) {
    attr_->observe_flow(record, sink_node);
  }
  if (e2e_latency_summary_ != nullptr) {
    e2e_latency_summary_->observe(completed_at - state.first_arrival);
  }
  if (tracer_ != nullptr && tracer_->wants(obs::kSpans)) {
    tracer_->async_end(obs::kSpans, "flow", flow, 0, completed_at);
  }
  flows_.erase(flow);
}

int WorkflowRuntime::on_stage_dropped(const workload::Batch& batch) {
  const auto it = flows_.find(batch.flow);
  if (it == flows_.end()) return 0;
  FlowState& state = it->second;
  if (state.dead) return 0;  // a parallel branch already killed the flow
  state.dead = true;
  if (!collector_.claim(batch.flow)) return 0;
  ++flows_dropped_;
  if (flows_dropped_counter_) flows_dropped_counter_->inc();
  if (tracer_ != nullptr && tracer_->wants(obs::kSpans)) {
    tracer_->async_end(obs::kSpans, "flow", batch.flow, 0, sim_.now(),
                       {{"dropped", 1.0}});
  }
  return state.count;
}

Duration WorkflowRuntime::pay_hop(const workload::Batch& batch, NodeId dest) {
  if (!batch.has_pred) return 0.0;
  if (dest == batch.pred_node) {
    ++colocated_hops_;
    if (colocated_hops_counter_) colocated_hops_counter_->inc();
    return 0.0;
  }
  ++transfer_hops_;
  if (transfer_hops_counter_) transfer_hops_counter_->inc();
  const Duration hop = spec_.hop_seconds(batch.edge_mb);
  transfer_seconds_ += hop;
  return hop;
}

void WorkflowRuntime::register_telemetry(telemetry::MetricsRegistry& registry) {
  flows_admitted_counter_ = registry.counter("workflow_flows_admitted_total");
  flows_completed_counter_ =
      registry.counter("workflow_flows_completed_total");
  flows_dropped_counter_ = registry.counter("workflow_flows_dropped_total");
  colocated_hops_counter_ =
      registry.counter("workflow_stage_hops_total{kind=\"colocated\"}");
  transfer_hops_counter_ =
      registry.counter("workflow_stage_hops_total{kind=\"transfer\"}");
  e2e_latency_summary_ = registry.summary("workflow_e2e_latency_seconds",
                                          0.01, {0.5, 0.95, 0.99});
}

}  // namespace protean::workflow
