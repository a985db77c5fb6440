#include "deploy.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"
#include "harness/json.h"
#include "sched/registry.h"
#include "workload/model.h"

namespace perfbench {

using namespace protean;

const char* call_name(Call call) {
  switch (call) {
    case kIngest: return "cluster.ingest";
    case kPlace: return "sched.place";
    case kMakeJob: return "sched.make_job";
    case kMonitor: return "sched.monitor";
    case kObserve: return "telemetry.observe";
    case kCallCount: break;
  }
  return "?";
}

const char* phase_name(Phase phase) {
  switch (phase) {
    case kTraceBuild: return "trace.build_s";
    case kClusterBuild: return "cluster.build_s";
    case kRun: return "sim.run_s";
    case kDrain: return "sim.drain_s";
    case kFinalize: return "metrics.finalize_s";
    case kJson: return "harness.json_s";
    case kTelemetryWrite: return "telemetry.write_s";
    case kTeardown: return "cluster.teardown_s";
    case kPhaseCount: break;
  }
  return "?";
}

std::string report_json(const harness::ExperimentConfig& config,
                        const std::vector<harness::Report>& reports) {
  return harness::reports_to_json(config, reports).dump(2);
}

std::string mismatch(const harness::Report& want,
                     const harness::Report& got) {
  std::string out;
  auto check = [&out](const char* field, double a, double b) {
    if (a != b) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s: %.17g vs %.17g; ", field, a, b);
      out += buf;
    }
  };
  check("events_executed", static_cast<double>(want.events_executed),
        static_cast<double>(got.events_executed));
  check("strict_completed", static_cast<double>(want.strict_completed),
        static_cast<double>(got.strict_completed));
  check("strict_p50_ms", want.strict_p50_ms, got.strict_p50_ms);
  check("strict_p99_ms", want.strict_p99_ms, got.strict_p99_ms);
  check("slo_compliance_pct", want.slo_compliance_pct, got.slo_compliance_pct);
  check("cost_usd", want.cost_usd, got.cost_usd);
  if (want.scheme != got.scheme) {
    out += "scheme: " + want.scheme + " vs " + got.scheme + "; ";
  }
  return out;
}

Profile::Scope::Scope(Profile* profile, Acc* acc, const char* span)
    : profile_(profile), acc_(acc), span_(span), outer_(nullptr) {
  if (profile_ == nullptr) return;
  outer_ = profile_->nested_;
  profile_->nested_ = &nested_;
  start_ = Clock::now();
}

Profile::Scope::~Scope() {
  if (profile_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  const double took = std::chrono::duration<double>(end - start_).count();
  profile_->nested_ = outer_;
  if (outer_ != nullptr) *outer_ += took;
  ++acc_->calls;
  acc_->total_s += took;
  acc_->self_s += took - nested_;
  if (span_ != nullptr) {
    profile_->spans.push_back(
        {span_, profile_->since_origin(start_), profile_->since_origin(end)});
  }
}

double Profile::since_origin(Clock::time_point t) const {
  return std::chrono::duration<double>(t - origin_).count();
}

/// The gateway entry: every arrival window the trace driver emits.
class Deployment::TimedSink : public trace::RequestSink {
 public:
  TimedSink(trace::RequestSink& inner, Profile& profile,
            const sim::Simulator& sim)
      : inner_(inner), profile_(profile), sim_(sim) {}

  void on_arrivals(const workload::ModelProfile& model, bool strict,
                   int count, SimTime window_start,
                   SimTime window_end) override {
    profile_.heap_peak = std::max(profile_.heap_peak, sim_.heap_size());
    auto timed = profile_.call(kIngest);
    inner_.on_arrivals(model, strict, count, window_start, window_end);
  }

 private:
  trace::RequestSink& inner_;
  Profile& profile_;
  const sim::Simulator& sim_;
};

/// Forwards every Scheduler virtual; times the three the loop calls.
class Deployment::TimedScheduler : public cluster::Scheduler {
 public:
  TimedScheduler(cluster::Scheduler& inner, Profile& profile)
      : inner_(inner), profile_(profile) {}

  std::string name() const override { return inner_.name(); }
  gpu::SharingMode sharing_mode() const override {
    return inner_.sharing_mode();
  }
  gpu::Geometry initial_geometry() const override {
    return inner_.initial_geometry();
  }
  bool reorder_strict_first() const override {
    return inner_.reorder_strict_first();
  }
  std::optional<cluster::DispatchPolicy> dispatch_policy() const override {
    return inner_.dispatch_policy();
  }
  bool pipeline_conscious() const override {
    return inner_.pipeline_conscious();
  }
  gpu::Slice* place(const workload::Batch& batch,
                    cluster::WorkerNode& node) override {
    auto timed = profile_.call(kPlace);
    gpu::Slice* slice = inner_.place(batch, node);
    if (slice != nullptr) ++profile_.place_hits;
    return slice;
  }
  gpu::JobSpec make_job(const workload::Batch& batch, const gpu::Slice& slice,
                        JobId job_id) const override {
    auto timed = profile_.call(kMakeJob);
    return inner_.make_job(batch, slice, job_id);
  }
  void on_monitor(cluster::WorkerNode& node, int& reconfig_budget) override {
    auto timed = profile_.call(kMonitor);
    inner_.on_monitor(node, reconfig_budget);
  }

 private:
  cluster::Scheduler& inner_;
  Profile& profile_;
};

Profile::Scope Deployment::phase(Phase p) {
  return profile_ != nullptr ? profile_->phase(p)
                             : Profile::Scope(nullptr, nullptr);
}

// The constructor and the methods below follow harness::run_experiment
// step for step; keep them in its order when it changes.
Deployment::Deployment(const harness::ExperimentConfig& config,
                       Profile* profile)
    : config_(config), profile_(profile) {
  PROTEAN_CHECK_MSG(!config.trace_out.enabled(),
                    "the timed rebuild does not replay --trace output");
  {
    auto timed = phase(kClusterBuild);
    if (config.telemetry.enabled()) {
      pipeline_.emplace(sim_, config.telemetry, config.burn, nullptr);
    } else if (config.cluster.autoscale.enabled) {
      telemetry::TelemetryOptions fileless;
      fileless.path.clear();
      fileless.interval = config.cluster.autoscale.tick;
      pipeline_.emplace(sim_, fileless, config.burn, nullptr);
    }

    scheduler_ = sched::make_scheduler(config.scheme);
    cluster_config_ = config.cluster;
    cluster_config_.shards = std::min(std::max(cluster_config_.shards, 1u),
                                      cluster_config_.node_count);
    std::vector<cluster::Scheduler*> shard_schedulers;
    if (cluster_config_.shards > 1) {
      for (std::uint32_t s = 0; s < cluster_config_.shards; ++s) {
        shard_store_.push_back(sched::make_scheduler(config.scheme));
      }
    }
    cluster::Scheduler* main = scheduler_.get();
    if (profile_ != nullptr) {
      timed_.push_back(std::make_unique<TimedScheduler>(*main, *profile_));
      main = timed_.back().get();
    }
    for (auto& s : shard_store_) {
      if (profile_ != nullptr) {
        timed_.push_back(std::make_unique<TimedScheduler>(*s, *profile_));
        shard_schedulers.push_back(timed_.back().get());
      } else {
        shard_schedulers.push_back(s.get());
      }
    }
    if (config.scheme == sched::Scheme::kOracle) {
      cluster_config_.reconfigure_time = 0.0;
    }
    cluster_config_.market.seed = config.seed ^ 0xC0FFEEULL;
    cluster_config_.fault.seed = config.seed ^ 0xFA017ULL;
    cluster_config_.tracer = nullptr;
    cluster_config_.telemetry =
        pipeline_.has_value() ? &pipeline_->registry() : nullptr;

    cluster_.emplace(sim_, cluster_config_, *main, shard_schedulers);
    if (config.sketch_collector) {
      cluster_->collector().use_sketch_store(config.sketch_alpha);
    }
    if (pipeline_.has_value()) {
      cluster_->collector().set_batch_observer(
          [this](SimTime when, bool strict, double lat_first, double lat_last,
                 int count, double slo) {
            auto observed = profile_ != nullptr
                                ? profile_->call(kObserve)
                                : Profile::Scope(nullptr, nullptr);
            pipeline_->observe_batch(when, strict, lat_first, lat_last, count,
                                     slo);
          });
      if (const attr::AttributionEngine* ae = cluster_->attribution()) {
        pipeline_->set_dominant_cause_provider(
            [ae] { return ae->dominant_cause(); });
      }
    }
  }

  const auto& catalog = workload::ModelCatalog::instance();
  driver_config_.trace = config.trace;
  driver_config_.trace.seed = config.seed;
  driver_config_.strict_model = &catalog.by_name(config.strict_model);
  if (cluster_config_.workflow.enabled) {
    wf_spec_.emplace(workflow::WorkflowSpec::build(cluster_config_.workflow));
    driver_config_.strict_model = wf_spec_->entry_model();
  }
  driver_config_.strict_fraction = config.strict_fraction;
  driver_config_.be_rotation_period = config.be_rotation_period;
  driver_config_.seed = config.seed ^ 0xD417E5ULL;
  driver_config_.count_from = config.warmup;
  cluster_->collector().set_measure_from(config.warmup);
  for (const auto& name : config.be_pool) {
    driver_config_.be_pool.push_back(&catalog.by_name(name));
  }
  for (const auto& [when, name] : config.be_schedule) {
    driver_config_.be_schedule.emplace_back(when, &catalog.by_name(name));
  }
  trace::RequestSink* sink = &cluster_->sink();
  if (profile_ != nullptr) {
    sink_ = std::make_unique<TimedSink>(*sink, *profile_, sim_);
    sink = sink_.get();
  }
  {
    auto timed = phase(kTraceBuild);
    driver_.emplace(sim_, driver_config_, *sink);
  }

  auto timed = phase(kClusterBuild);
  if (config.cluster.autoscale.enabled && pipeline_.has_value()) {
    controller_.emplace(sim_, *cluster_, *pipeline_, config.cluster.autoscale,
                        driver_config_.strict_model);
  }
  for (NodeId id = 0; id < cluster_config_.node_count; ++id) {
    cluster_->node(id).prewarm(*driver_config_.strict_model, 4);
    if (wf_spec_.has_value()) {
      std::vector<const workload::ModelProfile*> warmed = {
          driver_config_.strict_model};
      for (int s = 1; s < wf_spec_->stage_count(); ++s) {
        const workload::ModelProfile* m = wf_spec_->stage(s).model;
        if (std::find(warmed.begin(), warmed.end(), m) != warmed.end()) {
          continue;
        }
        warmed.push_back(m);
        cluster_->node(id).prewarm(*m, 2);
      }
    }
    for (const auto* be_model : driver_->be_models()) {
      cluster_->node(id).prewarm(*be_model, 2);
    }
  }
  cluster_->start();
  driver_->start();
}

Deployment::~Deployment() = default;

void Deployment::run() {
  {
    auto timed = phase(kRun);
    sim_.run_until(config_.trace.horizon);
  }
  gpu_util_ = cluster_->gpu_utilization_pct();
  mem_util_ = cluster_->memory_utilization_pct();
  auto timed = phase(kDrain);
  cluster_->flush_gateways();
  sim_.run_until(config_.trace.horizon + config_.drain_grace);
  if (pipeline_.has_value()) pipeline_->finish(sim_.now());
}

harness::Report Deployment::finalize() {
  auto timed = phase(kFinalize);
  const metrics::Collector& collector = cluster_->collector();
  harness::Report report;
  report.scheme = scheduler_->name();
  report.strict_model = driver_config_.strict_model->name;
  report.min_possible_ms = to_ms(driver_config_.strict_model->solo_time_7g);
  report.slo_ms = to_ms(driver_config_.strict_model->slo_deadline(
      cluster_config_.slo_multiplier));
  if (const workflow::WorkflowRuntime* wf = cluster_->workflow()) {
    report.slo_ms = to_ms(wf->flow_slo());
    report.min_possible_ms = to_ms(wf->spec().critical_path_solo());
  }

  report.strict_emitted = driver_->strict_emitted();
  report.strict_completed = collector.strict_completed();
  report.be_completed = collector.be_completed();
  const double compliant = collector.slo_compliance_pct() / 100.0 *
                           static_cast<double>(collector.strict_completed());
  double denom = static_cast<double>(collector.strict_completed());
  if (config_.count_unfinished_as_violations &&
      driver_->strict_emitted() > collector.strict_completed()) {
    denom = static_cast<double>(driver_->strict_emitted());
  }
  report.slo_compliance_pct = denom > 0.0 ? 100.0 * compliant / denom : 100.0;

  report.strict_p50_ms = to_ms(collector.strict_percentile(50.0));
  report.strict_p99_ms = to_ms(collector.strict_percentile(99.0));
  report.strict_mean_ms = to_ms(collector.strict_mean());
  report.be_p50_ms = to_ms(collector.be_percentile(50.0));
  report.be_p99_ms = to_ms(collector.be_percentile(99.0));
  report.tail_breakdown = collector.tail_breakdown(99.0);

  const double gpu_seconds =
      static_cast<double>(cluster_config_.node_count) * config_.trace.horizon;
  report.throughput_strict =
      static_cast<double>(collector.strict_completed()) / gpu_seconds;
  report.goodput_strict =
      report.slo_compliance_pct / 100.0 * denom / gpu_seconds;
  report.throughput_total =
      static_cast<double>(collector.strict_completed() +
                          collector.be_completed()) /
      gpu_seconds;
  report.gpu_util_pct = gpu_util_;
  report.mem_util_pct = mem_util_;

  report.cold_starts = cluster_->total_cold_starts();
  report.dropped = collector.dropped();
  report.reconfigurations = cluster_->total_reconfigurations();
  report.events_executed = sim_.executed();

  report.cost_usd = cluster_->market().total_cost();
  report.cost_on_demand_ref_usd = cluster_->market().on_demand_reference_cost();
  report.evictions = cluster_->market().evictions();
  if (config_.keep_latency_samples) {
    report.strict_latencies = collector.strict_latencies();
  }
  return report;
}

void Deployment::add_counts(Counts& c) {
  const metrics::Collector& collector = cluster_->collector();
  c.events += sim_.executed();
  for (std::size_t s = 0; s < cluster_->shard_count(); ++s) {
    const cluster::Gateway& gateway = cluster_->gateway(s);
    c.batches += gateway.batches_formed();
    c.partial_batches += gateway.partial_batches();
  }
  c.cold_starts += cluster_->total_cold_starts();
  c.reconfigs +=
      static_cast<std::uint64_t>(cluster_->total_reconfigurations());
  c.requests += collector.strict_completed() + collector.be_completed();
  c.store_bytes += collector.latency_store_bytes();
  c.batch_records += collector.batch_records().size();
  if (pipeline_.has_value()) c.scrapes += pipeline_->scrape_count();
  if (const attr::AttributionEngine* ae = cluster_->attribution()) {
    c.attr_batches += ae->batches();
    c.attr_identity_violations += ae->identity_violations();
  }
  c.attr_negative_clamps += collector.negative_component_clamps();
  c.lost_batches += cluster_->total_lost_batches();
  c.retries += collector.retries();
  if (const workflow::WorkflowRuntime* wf = cluster_->workflow()) {
    c.stage_batches += wf->stage_batches();
    c.transfer_hops += wf->transfer_hops();
    c.colocated_hops += wf->colocated_hops();
  }
  if (controller_.has_value()) {
    c.autoscale_ticks += controller_->stats().ticks;
    c.autoscale_committed_ticks += controller_->stats().committed_ticks;
  }
}

void Deployment::teardown() {
  {
    auto timed = phase(kTeardown);
    cluster_->stop();
    controller_.reset();
    driver_.reset();
    sink_.reset();
    cluster_.reset();
  }
  auto timed = phase(kTelemetryWrite);
  if (pipeline_.has_value()) pipeline_->write_files();
}

}  // namespace perfbench
