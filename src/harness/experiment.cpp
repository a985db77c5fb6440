#include "harness/experiment.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "autoscale/controller.h"
#include "gpu/sharing.h"
#include "softgpu/substrate.h"
#include "cluster/cluster.h"
#include "common/check.h"
#include "harness/sweep.h"
#include "sim/simulator.h"
#include "trace/driver.h"
#include "workflow/spec.h"
#include "workload/model.h"

namespace protean::harness {

namespace {

const workload::ModelProfile& model_by_name(const std::string& name) {
  return workload::ModelCatalog::instance().by_name(name);
}

}  // namespace

Report run_experiment(const ExperimentConfig& config) {
  sim::Simulator sim;
  // The tracer outlives the deployment: slice destructors flush their open
  // busy spans into it, so the file is written only after teardown.
  std::optional<obs::Tracer> tracer;
  if (config.trace_out.enabled()) {
    tracer.emplace(sim, config.trace_out.categories);
  }
  // Same lifetime contract for the telemetry pipeline: its registry holds
  // gauge callbacks into the deployment, but scrapes only run while the
  // simulation does, and the files are written after teardown. The
  // autoscale control loop rides the scrape tick, so enabling it without
  // --telemetry creates a file-less pipeline at the autoscaler's cadence
  // (an explicit --telemetry interval wins — one scrape schedule).
  std::optional<telemetry::TelemetryPipeline> pipeline;
  if (config.telemetry.enabled()) {
    pipeline.emplace(sim, config.telemetry, config.burn,
                     tracer.has_value() ? &*tracer : nullptr);
  } else if (config.cluster.autoscale.enabled) {
    telemetry::TelemetryOptions fileless;
    fileless.path.clear();
    fileless.interval = config.cluster.autoscale.tick;
    pipeline.emplace(sim, fileless, config.burn,
                     tracer.has_value() ? &*tracer : nullptr);
  }

  auto scheduler = sched::make_scheduler(config.scheme);
  cluster::ClusterConfig cluster_config = config.cluster;
  // Sharded control plane (docs/scale.md): one scheduler instance per shard,
  // so scheduler state (e.g. per-node reconfigurator history) never crosses
  // a shard boundary. Clamped so tiny fleets can't out-shard their nodes;
  // shards == 1 passes no extra schedulers and is byte-identical.
  cluster_config.shards =
      std::min(std::max(cluster_config.shards, 1u), cluster_config.node_count);
  std::vector<std::unique_ptr<cluster::Scheduler>> shard_scheduler_store;
  std::vector<cluster::Scheduler*> shard_schedulers;
  if (cluster_config.shards > 1) {
    shard_scheduler_store.reserve(cluster_config.shards);
    for (std::uint32_t s = 0; s < cluster_config.shards; ++s) {
      shard_scheduler_store.push_back(sched::make_scheduler(config.scheme));
      shard_schedulers.push_back(shard_scheduler_store.back().get());
    }
  }
  if (config.scheme == sched::Scheme::kOracle) {
    // Oracle pays no reconfiguration downtime (Section 6.2).
    cluster_config.reconfigure_time = 0.0;
  }
  cluster_config.market.seed = config.seed ^ 0xC0FFEEULL;
  cluster_config.fault.seed = config.seed ^ 0xFA017ULL;
  cluster_config.tracer = tracer.has_value() ? &*tracer : nullptr;
  cluster_config.telemetry =
      pipeline.has_value() ? &pipeline->registry() : nullptr;

  Report report;
  {
  cluster::Cluster deployment(sim, cluster_config, *scheduler,
                              shard_schedulers);
  if (config.sketch_collector) {
    deployment.collector().use_sketch_store(config.sketch_alpha);
  }
  if (pipeline.has_value()) {
    deployment.collector().set_batch_observer(
        [&pipeline](SimTime when, bool strict, double lat_first,
                    double lat_last, int count, double slo) {
          pipeline->observe_batch(when, strict, lat_first, lat_last, count,
                                  slo);
        });
    if (const attr::AttributionEngine* ae = deployment.attribution()) {
      // Burn-rate alerts carry the cause currently dominating the
      // violation tally (docs/attribution.md). Only invoked during
      // scrapes, while the deployment is alive.
      pipeline->set_dominant_cause_provider(
          [ae] { return ae->dominant_cause(); });
    }
  }

  trace::DriverConfig driver_config;
  driver_config.trace = config.trace;
  driver_config.trace.seed = config.seed;
  driver_config.strict_model = &model_by_name(config.strict_model);
  // With workflows on, the strict stream addresses the DAG's entry stage;
  // the configured strict model only applies to single-model runs.
  std::optional<workflow::WorkflowSpec> wf_spec;
  if (cluster_config.workflow.enabled) {
    wf_spec.emplace(workflow::WorkflowSpec::build(cluster_config.workflow));
    driver_config.strict_model = wf_spec->entry_model();
  }
  driver_config.strict_fraction = config.strict_fraction;
  driver_config.be_rotation_period = config.be_rotation_period;
  driver_config.seed = config.seed ^ 0xD417E5ULL;
  driver_config.count_from = config.warmup;
  deployment.collector().set_measure_from(config.warmup);
  for (const auto& name : config.be_pool) {
    driver_config.be_pool.push_back(&model_by_name(name));
  }
  for (const auto& [when, name] : config.be_schedule) {
    driver_config.be_schedule.emplace_back(when, &model_by_name(name));
  }
  trace::WorkloadDriver driver(sim, driver_config, deployment.sink());

  // The controller registers itself as the pipeline's scrape listener;
  // construction order (after cluster + driver) only reflects its borrows.
  std::optional<autoscale::AutoscaleController> controller;
  if (config.cluster.autoscale.enabled && pipeline.has_value()) {
    controller.emplace(sim, deployment, *pipeline, config.cluster.autoscale,
                       driver_config.strict_model);
  }

  // Start in the steady state the paper measures: a long-running deployment
  // already has warm containers for the active models on every node.
  for (NodeId id = 0; id < cluster_config.node_count; ++id) {
    deployment.node(id).prewarm(*driver_config.strict_model, 4);
    if (wf_spec.has_value()) {
      // Downstream stage models need warm containers too (each distinct
      // model once; the entry stage already got its strict allotment).
      std::vector<const workload::ModelProfile*> warmed = {
          driver_config.strict_model};
      for (int s = 1; s < wf_spec->stage_count(); ++s) {
        const workload::ModelProfile* m = wf_spec->stage(s).model;
        if (std::find(warmed.begin(), warmed.end(), m) != warmed.end()) {
          continue;
        }
        warmed.push_back(m);
        deployment.node(id).prewarm(*m, 2);
      }
    }
    for (const auto* be_model : driver.be_models()) {
      deployment.node(id).prewarm(*be_model, 2);
    }
  }

  deployment.start();
  driver.start();

  sim.run_until(config.trace.horizon);
  // Utilization is measured over the loaded window, not the drain tail.
  const double gpu_util = deployment.gpu_utilization_pct();
  const double mem_util = deployment.memory_utilization_pct();

  deployment.flush_gateways();
  sim.run_until(config.trace.horizon + config.drain_grace);
  // Final scrape at the end of the drain window; gauges still read live
  // deployment state, so this must precede teardown.
  if (pipeline.has_value()) pipeline->finish(sim.now());

  const auto& collector = deployment.collector();

  report.scheme = scheduler->name();
  report.strict_model = driver_config.strict_model->name;
  report.min_possible_ms = to_ms(driver_config.strict_model->solo_time_7g);
  report.slo_ms = to_ms(driver_config.strict_model->slo_deadline(
      cluster_config.slo_multiplier));
  if (const workflow::WorkflowRuntime* wf = deployment.workflow()) {
    // End-to-end flow numbers: the deadline and the floor span the whole
    // DAG's critical path, not the entry stage alone.
    report.slo_ms = to_ms(wf->flow_slo());
    report.min_possible_ms = to_ms(wf->spec().critical_path_solo());
  }

  report.strict_emitted = driver.strict_emitted();
  report.strict_completed = collector.strict_completed();
  report.be_completed = collector.be_completed();

  // SLO compliance; requests never served within the generous drain window
  // are violations (they queued behind a collapsed backlog).
  double compliant =
      collector.slo_compliance_pct() / 100.0 *
      static_cast<double>(collector.strict_completed());
  double denom = static_cast<double>(collector.strict_completed());
  if (config.count_unfinished_as_violations &&
      driver.strict_emitted() > collector.strict_completed()) {
    denom = static_cast<double>(driver.strict_emitted());
  }
  report.slo_compliance_pct = denom > 0.0 ? 100.0 * compliant / denom : 100.0;

  report.strict_p50_ms = to_ms(collector.strict_percentile(50.0));
  report.strict_p99_ms = to_ms(collector.strict_percentile(99.0));
  report.strict_mean_ms = to_ms(collector.strict_mean());
  report.be_p50_ms = to_ms(collector.be_percentile(50.0));
  report.be_p99_ms = to_ms(collector.be_percentile(99.0));
  report.tail_breakdown = collector.tail_breakdown(99.0);

  const double gpu_seconds =
      static_cast<double>(cluster_config.node_count) * config.trace.horizon;
  report.throughput_strict =
      static_cast<double>(collector.strict_completed()) / gpu_seconds;
  report.goodput_strict = report.slo_compliance_pct / 100.0 *
                          static_cast<double>(denom) / gpu_seconds;
  report.throughput_total =
      static_cast<double>(collector.strict_completed() +
                          collector.be_completed()) /
      gpu_seconds;
  report.gpu_util_pct = gpu_util;
  report.mem_util_pct = mem_util;

  report.cold_starts = deployment.total_cold_starts();
  report.dropped = collector.dropped();
  report.reconfigurations = deployment.total_reconfigurations();
  report.events_executed = sim.executed();

  report.cost_usd = deployment.market().total_cost();
  report.cost_on_demand_ref_usd =
      deployment.market().on_demand_reference_cost();
  report.evictions = deployment.market().evictions();

  if (config.keep_latency_samples) {
    // The percentile queries above were the last reads of the store, so
    // the buffer moves into the report instead of being copied.
    report.strict_latencies = deployment.collector().take_strict_latencies();
  }

  if (cluster_config.memcache.enabled) {
    report.memcache.enabled = true;
    report.memcache.hits = collector.cache_hits();
    report.memcache.misses = collector.cache_misses();
    report.memcache.evictions = collector.cache_evictions();
    const double accesses =
        static_cast<double>(collector.cache_hits() + collector.cache_misses());
    report.memcache.hit_rate_pct =
        accesses > 0.0
            ? 100.0 * static_cast<double>(collector.cache_hits()) / accesses
            : 0.0;
    // All fleet slots, not just the base fleet — autoscale-acquired nodes
    // carry caches too (identical when the autoscaler is off).
    for (NodeId id = 0; id < deployment.node_count(); ++id) {
      cluster::WorkerNode& node = deployment.node(id);
      report.memcache.swap_stall_seconds += node.swap_stall_seconds();
      if (config.keep_mem_timeline && node.cache() != nullptr) {
        report.mem_timelines.push_back(node.cache()->timeline());
      }
      if (config.keep_cache_access_log && node.cache() != nullptr) {
        report.cache_access_logs.push_back(node.cache()->access_log());
      }
    }
  }

  if (cluster_config.fault.enabled) {
    report.faults.enabled = true;
    if (const fault::FaultInjector* injector = deployment.injector()) {
      report.faults.injected_crashes =
          static_cast<std::uint64_t>(injector->injected_crashes());
      report.faults.injected_kills =
          static_cast<std::uint64_t>(injector->injected_kills());
      report.faults.injected_ecc =
          static_cast<std::uint64_t>(injector->injected_ecc());
    }
    report.faults.failed_reconfigurations =
        deployment.total_failed_reconfigurations();
    report.faults.lost_batches = deployment.total_lost_batches();
    report.faults.lost_requests = collector.lost_requests();
    report.faults.retries = collector.retries();
    report.faults.hedges = collector.hedges();
    report.faults.duplicate_hedges = collector.duplicate_hedges();
  }

  if (config.telemetry.enabled() && pipeline.has_value()) {
    report.telemetry.enabled = true;
    report.telemetry.scrapes = pipeline->scrape_count();
    const telemetry::BurnSummary burn = pipeline->burn_summary();
    report.telemetry.alerts_fired = burn.alerts_fired;
    report.telemetry.first_alert_at_s = burn.first_alert_at;
    report.telemetry.alert_active_seconds = burn.alert_active_seconds;
  }

  if (cluster_config.softgpu.enabled) {
    const softgpu::SoftGpuConfig& sg = cluster_config.softgpu;
    report.substrate.enabled = true;
    report.substrate.mode = gpu::to_string(sg.mode);
    if (sg.mode == gpu::SharingMode::kSoftSlice) {
      report.substrate.discipline = softgpu::to_string(sg.discipline);
      report.substrate.soft_nodes = static_cast<std::uint32_t>(
          softgpu::soft_node_count(sg, cluster_config.node_count));
    }
    for (NodeId id = 0; id < deployment.node_count(); ++id) {
      cluster::WorkerNode& node = deployment.node(id);
      if (!node.up()) continue;
      if (node.gpu().mode() == gpu::SharingMode::kSoftSlice) {
        report.substrate.soft_reconfigurations += node.reconfigurations();
      }
    }
  }

  if (const workflow::WorkflowRuntime* wf = deployment.workflow()) {
    report.workflow.enabled = true;
    report.workflow.shape = wf->spec().name();
    report.workflow.stages = wf->spec().stage_count();
    report.workflow.flows_admitted = wf->flows_admitted();
    report.workflow.flows_completed = wf->flows_completed();
    report.workflow.flows_dropped = wf->flows_dropped();
    report.workflow.stage_batches = wf->stage_batches();
    report.workflow.colocated_hops = wf->colocated_hops();
    report.workflow.transfer_hops = wf->transfer_hops();
    report.workflow.transfer_seconds = wf->transfer_seconds();
    // Only terminal flow records enter the strict latency store when
    // workflows are on, so the strict percentiles ARE the end-to-end flow
    // percentiles.
    report.workflow.e2e_p50_ms = report.strict_p50_ms;
    report.workflow.e2e_p99_ms = report.strict_p99_ms;
  }

  if (const attr::AttributionEngine* ae = deployment.attribution()) {
    report.attribution.enabled = true;
    report.attribution.requests = ae->requests();
    report.attribution.batches = ae->batches();
    report.attribution.violations = ae->violations();
    report.attribution.identity_violations = ae->identity_violations();
    report.attribution.negative_component_clamps =
        collector.negative_component_clamps();
    report.attribution.dominant_cause = ae->dominant_cause();
    // The exactness contract: the engine classifies with the collector's
    // own arithmetic over the same record stream, so the two violation
    // counts must agree to the request.
    PROTEAN_DCHECK(ae->violations() == collector.strict_violations());
    for (int c = 0; c < attr::kCauseCount; ++c) {
      const auto cause = static_cast<attr::Cause>(c);
      Report::AttributionStats::CauseRow row;
      row.cause = attr::cause_name(cause);
      row.violations = ae->violations_for(cause);
      if (c < attr::kComponentCount) {
        row.seconds = ae->component_seconds(cause);
        const metrics::QuantileSketch& sk = ae->sketch(cause);
        row.p50_ms = to_ms(sk.quantile(0.50));
        row.p99_ms = to_ms(sk.quantile(0.99));
      }
      report.attribution.causes.push_back(std::move(row));
    }
    for (const attr::AttributionEngine::GroupRow& g : ae->group_rows()) {
      Report::AttributionStats::GroupRow row;
      row.model = g.model;
      row.shard = g.shard;
      row.strict = g.strict;
      row.requests = g.requests;
      row.violations = g.violations;
      if (g.violations > 0) row.dominant = attr::cause_name(g.dominant);
      report.attribution.groups.push_back(std::move(row));
    }
  }

  if (controller.has_value()) {
    const autoscale::AutoscaleStats& as = controller->stats();
    report.autoscale.enabled = true;
    report.autoscale.policy =
        autoscale::policy_cli_name(config.cluster.autoscale.policy);
    report.autoscale.ticks = as.ticks;
    report.autoscale.acquisitions = as.acquisitions;
    report.autoscale.releases = as.releases;
    report.autoscale.promotes = as.promotes;
    report.autoscale.demotes = as.demotes;
    report.autoscale.warm_boosts = as.warm_boosts;
    report.autoscale.prefetched_slices = as.prefetched_slices;
    report.autoscale.peak_nodes = as.peak_nodes;
    report.autoscale.low_nodes = as.low_nodes;
    report.autoscale.avg_nodes =
        as.ticks > 0
            ? as.committed_ticks / static_cast<double>(as.ticks)
            : static_cast<double>(config.cluster.node_count);
  }

  if (tracer.has_value()) {
    // Collector aggregates the invariant checker replays the span stream
    // against (tools/trace_stats --check, obs::check_invariants).
    double busy = 0.0;
    for (NodeId id = 0; id < deployment.node_count(); ++id) {
      busy += deployment.node(id).gpu_busy_seconds();
    }
    tracer->set_summary("busy_seconds", busy);
    tracer->set_summary(
        "cold_starts", static_cast<double>(deployment.total_cold_starts()));
    tracer->set_summary("retries", static_cast<double>(collector.retries()));
    tracer->set_summary("hedges", static_cast<double>(collector.hedges()));
    tracer->set_summary(
        "lost_batches", static_cast<double>(deployment.total_lost_batches()));
    // Informational context (not cross-checked).
    tracer->set_summary("strict_completed",
                        static_cast<double>(collector.strict_completed()));
    tracer->set_summary("be_completed",
                        static_cast<double>(collector.be_completed()));
    tracer->set_summary(
        "reconfigurations",
        static_cast<double>(deployment.total_reconfigurations()));
    tracer->set_summary("horizon", config.trace.horizon + config.drain_grace);
    if (const attr::AttributionEngine* ae = deployment.attribution()) {
      // Attribution aggregates for the replay audit (obs::check_invariants
      // pins the cause lanes against the total and the health counters at
      // zero) and for slo_explain's trace ingestion path.
      tracer->set_summary("attr_requests",
                          static_cast<double>(ae->requests()));
      tracer->set_summary("attr_violations",
                          static_cast<double>(ae->violations()));
      tracer->set_summary("attr_identity_violations",
                          static_cast<double>(ae->identity_violations()));
      tracer->set_summary(
          "negative_component_clamps",
          static_cast<double>(collector.negative_component_clamps()));
      for (int c = 0; c < attr::kCauseCount; ++c) {
        const auto cause = static_cast<attr::Cause>(c);
        tracer->set_summary(
            std::string("attr_cause_") + attr::cause_name(cause),
            static_cast<double>(ae->violations_for(cause)));
      }
    }
  }

  deployment.stop();
  }  // deployment teardown flushes open busy spans into the tracer
  if (tracer.has_value()) tracer->write_file(config.trace_out.path);
  if (pipeline.has_value()) pipeline->write_files();
  return report;
}

std::vector<Report> run_schemes(ExperimentConfig config,
                                const std::vector<sched::Scheme>& schemes) {
  // Thin wrapper over the sweep API: a one-seed, axis-less, single-job grid
  // is exactly the historical serial scheme loop.
  SweepConfig sweep;
  sweep.base = std::move(config);
  sweep.schemes = schemes;
  return SweepRunner(/*jobs=*/1).run_grid(sweep);
}

ExperimentConfig primary_config(const std::string& strict_model,
                                Duration horizon) {
  ExperimentConfig config;
  config.strict_model = strict_model;
  config.trace.kind = trace::TraceKind::kWiki;
  config.trace.target_rps = 5000.0;
  config.trace.horizon = horizon;
  config.cluster.node_count = 8;
  const auto& model = model_by_name(strict_model);
  if (model.iclass == workload::InterferenceClass::kVHI) {
    // Language models run at 128 rps with batch size 4 (Section 5).
    config.trace.target_rps = 128.0;
  }
  return config;
}

}  // namespace protean::harness
