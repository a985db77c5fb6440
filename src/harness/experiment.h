// Experiment harness: configures a full deployment (trace → gateway →
// cluster → GPUs → market) for one scheme, runs it, and distills the
// metrics every paper table/figure reports.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cluster/config.h"
#include "memcache/model_cache.h"
#include "metrics/collector.h"
#include "obs/trace.h"
#include "sched/registry.h"
#include "telemetry/pipeline.h"
#include "trace/trace.h"

namespace protean::harness {

struct ExperimentConfig {
  sched::Scheme scheme = sched::Scheme::kProtean;

  /// Strict-request model (by catalog name).
  std::string strict_model = "ResNet 50";
  double strict_fraction = 0.5;
  /// Explicit BE pool (catalog names); empty = opposite-class pool.
  std::vector<std::string> be_pool;
  /// Explicit BE schedule (time, model name); overrides rotation.
  std::vector<std::pair<SimTime, std::string>> be_schedule;
  Duration be_rotation_period = 20.0;

  trace::TraceConfig trace;
  cluster::ClusterConfig cluster;

  /// Measurement starts after this warmup (containers warm, queues steady);
  /// the paper reports steady-state behaviour.
  Duration warmup = 20.0;
  /// Extra simulated time after the trace ends for in-flight work to drain.
  Duration drain_grace = 15.0;
  /// Count strict requests still unserved after the drain as SLO misses.
  bool count_unfinished_as_violations = true;
  /// Keep a table of strict request latency percentiles in the report
  /// (Fig. 8's CDF, the --json percentile block).
  bool keep_latency_samples = false;
  /// Keep per-node resident-weight timelines in the report (memcache only).
  bool keep_mem_timeline = false;
  /// Keep per-node cache access logs (offline Belady studies; memcache only).
  bool keep_cache_access_log = false;

  /// Timeline/span trace output (docs/observability.md). Disabled (empty
  /// path) by default; when enabled the run writes a Chrome trace-event
  /// JSON file after the deployment is torn down.
  obs::TraceOptions trace_out;

  /// Telemetry output (docs/telemetry.md). Disabled (empty path) by
  /// default; when enabled the run scrapes a metrics registry every
  /// `telemetry.interval` sim-seconds and writes a JSONL timeline plus an
  /// OpenMetrics snapshot after the run.
  telemetry::TelemetryOptions telemetry;
  /// SLO burn-rate alerting knobs (only read when telemetry is enabled).
  telemetry::BurnRateConfig burn;

  /// Compute percentiles and means from quantile sketches instead of the
  /// exact per-batch latency ramps (metrics/sketch.h): percentiles gain an
  /// `sketch_alpha` relative-error bound. The batch records are kept either
  /// way, so this saves no memory. Independent of `telemetry`.
  bool sketch_collector = false;
  double sketch_alpha = 0.01;

  std::uint64_t seed = 42;

  // Chainable setters, so call sites can describe a variant in one
  // expression (plain aggregate/member initialization keeps working):
  //   auto cfg = primary_config("ResNet 50")
  //                  .with_scheme(sched::Scheme::kGpulet)
  //                  .with_rps(2500.0)
  //                  .with_seed(7);
  ExperimentConfig& with_scheme(sched::Scheme s) {
    scheme = s;
    return *this;
  }
  ExperimentConfig& with_strict_fraction(double fraction) {
    strict_fraction = fraction;
    return *this;
  }
  ExperimentConfig& with_be_pool(std::vector<std::string> pool) {
    be_pool = std::move(pool);
    return *this;
  }
  ExperimentConfig& with_be_rotation_period(Duration period) {
    be_rotation_period = period;
    return *this;
  }
  ExperimentConfig& with_rps(double rps) {
    trace.target_rps = rps;
    return *this;
  }
  ExperimentConfig& with_trace_kind(trace::TraceKind kind) {
    trace.kind = kind;
    return *this;
  }
  ExperimentConfig& with_nodes(std::uint32_t count) {
    cluster.node_count = count;
    return *this;
  }
  /// Control-plane shards (docs/scale.md). Clamped to the node count at
  /// run time; 1 (the default) is byte-identical to the unsharded plane.
  ExperimentConfig& with_shards(std::uint32_t count) {
    cluster.shards = count;
    return *this;
  }
  ExperimentConfig& with_slo_multiplier(double multiplier) {
    cluster.slo_multiplier = multiplier;
    return *this;
  }
  ExperimentConfig& with_market(spot::ProcurementPolicy policy,
                                double p_rev = 0.0) {
    cluster.market.policy = policy;
    cluster.market.p_rev = p_rev;
    return *this;
  }
  ExperimentConfig& with_warmup(Duration w) {
    warmup = w;
    return *this;
  }
  ExperimentConfig& with_latency_samples(bool keep = true) {
    keep_latency_samples = keep;
    return *this;
  }
  ExperimentConfig& with_memcache(const memcache::MemCacheConfig& mc) {
    cluster.memcache = mc;
    return *this;
  }
  ExperimentConfig& with_cache_access_log(bool keep = true) {
    keep_cache_access_log = keep;
    return *this;
  }
  ExperimentConfig& with_faults(const fault::FaultConfig& fc) {
    cluster.fault = fc;
    return *this;
  }
  ExperimentConfig& with_substrate(const softgpu::SoftGpuConfig& sg) {
    cluster.softgpu = sg;
    return *this;
  }
  ExperimentConfig& with_workflow(const workflow::WorkflowConfig& wf) {
    cluster.workflow = wf;
    return *this;
  }
  ExperimentConfig& with_seed(std::uint64_t s) {
    seed = s;
    return *this;
  }
  ExperimentConfig& with_trace(obs::TraceOptions options) {
    trace_out = std::move(options);
    return *this;
  }
  ExperimentConfig& with_telemetry(telemetry::TelemetryOptions options) {
    telemetry = std::move(options);
    return *this;
  }
  ExperimentConfig& with_sketch_collector(double alpha = 0.01) {
    sketch_collector = true;
    sketch_alpha = alpha;
    return *this;
  }
};

/// Strict request latency percentiles (seconds) at one fixed list of ps,
/// the union of what its readers print: the --json block and Fig. 8.
/// run_experiment fills it from the same in-place selection that gives
/// strict_p50_ms and strict_p99_ms.
class PercentileTable {
 public:
  static constexpr std::array<double, 9> kPs = {10.0, 25.0, 50.0, 75.0, 80.0,
                                                90.0, 95.0, 99.0, 99.9};

  PercentileTable() = default;
  /// The table of values[i] at kPs[i].
  explicit PercentileTable(std::span<const double, kPs.size()> values);

  /// Selects the table from a copy of the ramps; a table of no ramps is
  /// empty. This exists only because perfbench's timed rebuild
  /// (perfbench/deploy.cpp) fills its report from
  /// Collector::strict_latencies(); it goes when that file does.
  PercentileTable& operator=(const metrics::LatencyRamps& ramps);

  bool empty() const noexcept { return !present_; }
  /// The percentile at p, which must be one of kPs.
  double at(double p) const;

 private:
  std::array<double, kPs.size()> values_{};
  bool present_ = false;
};

struct Report {
  std::string scheme;
  std::string strict_model;

  double slo_compliance_pct = 0.0;
  double slo_ms = 0.0;            ///< the strict deadline, ms
  double min_possible_ms = 0.0;   ///< strict model solo time on 7g, ms

  double strict_p50_ms = 0.0;
  double strict_p99_ms = 0.0;
  double strict_mean_ms = 0.0;
  double be_p50_ms = 0.0;
  double be_p99_ms = 0.0;

  metrics::Breakdown tail_breakdown;  ///< P99 attribution, seconds

  double throughput_strict = 0.0;  ///< strict requests / GPU / s
  double throughput_total = 0.0;   ///< all requests / GPU / s
  /// Strict requests served *within their SLO* per GPU per second — the
  /// throughput a backlogging scheme actually delivers.
  double goodput_strict = 0.0;
  double gpu_util_pct = 0.0;
  double mem_util_pct = 0.0;

  std::uint64_t strict_emitted = 0;
  std::uint64_t strict_completed = 0;
  std::uint64_t be_completed = 0;
  std::uint64_t cold_starts = 0;
  std::uint64_t dropped = 0;
  int reconfigurations = 0;
  /// Discrete events the simulator executed over the whole run (including
  /// the drain window).
  std::uint64_t events_executed = 0;

  double cost_usd = 0.0;
  double cost_on_demand_ref_usd = 0.0;
  int evictions = 0;

  /// Model-weight cache results (zeroed unless cluster.memcache.enabled).
  struct MemCacheStats {
    bool enabled = false;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    double hit_rate_pct = 0.0;
    double swap_stall_seconds = 0.0;
  };
  MemCacheStats memcache;

  /// Fault-injection results (zeroed unless cluster.fault.enabled).
  struct FaultStats {
    bool enabled = false;
    std::uint64_t injected_crashes = 0;
    std::uint64_t injected_kills = 0;
    std::uint64_t injected_ecc = 0;
    int failed_reconfigurations = 0;
    std::uint64_t lost_batches = 0;    ///< in-flight batches aborted
    std::uint64_t lost_requests = 0;   ///< requests inside aborted batches
    std::uint64_t retries = 0;         ///< re-dispatches after aborts
    std::uint64_t hedges = 0;          ///< hedged twins launched
    std::uint64_t duplicate_hedges = 0;  ///< twin finished after primary
  };
  FaultStats faults;

  /// Telemetry results (zeroed unless config.telemetry is enabled — an
  /// autoscale-only run drives its file-less pipeline without reporting
  /// telemetry output).
  struct TelemetryStats {
    bool enabled = false;
    std::uint64_t scrapes = 0;
    std::uint64_t alerts_fired = 0;
    double first_alert_at_s = -1.0;  ///< negative: no alert ever fired
    double alert_active_seconds = 0.0;
  };
  TelemetryStats telemetry;

  /// Autoscaler results (zeroed unless cluster.autoscale.enabled).
  struct AutoscaleStats {
    bool enabled = false;
    std::string policy;
    std::uint64_t ticks = 0;
    int acquisitions = 0;
    int releases = 0;
    int promotes = 0;
    int demotes = 0;
    std::uint64_t warm_boosts = 0;
    std::uint64_t prefetched_slices = 0;
    std::uint32_t peak_nodes = 0;
    std::uint32_t low_nodes = 0;
    double avg_nodes = 0.0;  ///< mean committed fleet over control ticks
  };
  AutoscaleStats autoscale;

  /// Substrate results (zeroed unless cluster.softgpu.enabled).
  struct SubstrateStats {
    bool enabled = false;
    std::string mode;        ///< forced sharing mode (canonical CLI name)
    std::string discipline;  ///< fraction | timeslice (kSoftSlice only)
    std::uint32_t soft_nodes = 0;  ///< base-fleet nodes on the soft substrate
    /// Reconfigurations executed by soft-sliced GPUs (all in-place, zero
    /// downtime); hardware reconfigurations stay in `reconfigurations`.
    int soft_reconfigurations = 0;
  };
  SubstrateStats substrate;

  /// Workflow results (zeroed unless cluster.workflow.enabled). With
  /// workflows on, the report's strict stats ARE end-to-end flow stats:
  /// only terminal flow records enter the strict latency/compliance path,
  /// so slo_compliance_pct measures whole-DAG deadlines, never per-stage.
  struct WorkflowStats {
    bool enabled = false;
    std::string shape;     ///< chain | fanout | diamond | shared
    int stages = 0;
    std::uint64_t flows_admitted = 0;
    std::uint64_t flows_completed = 0;
    std::uint64_t flows_dropped = 0;
    std::uint64_t stage_batches = 0;    ///< stage completions recorded
    std::uint64_t colocated_hops = 0;   ///< zero-cost adjacent-stage hops
    std::uint64_t transfer_hops = 0;    ///< cross-node hops that paid
    double transfer_seconds = 0.0;      ///< total inter-stage transfer time
    double e2e_p50_ms = 0.0;
    double e2e_p99_ms = 0.0;
  };
  WorkflowStats workflow;

  /// Attribution results (zeroed unless cluster.attr.enabled). The engine
  /// is exact: `violations` equals the collector's strict-violation count,
  /// every violation carries exactly one cause, and `identity_violations`
  /// / `negative_component_clamps` are hard zeros on a healthy run.
  struct AttributionStats {
    bool enabled = false;
    std::uint64_t requests = 0;
    std::uint64_t batches = 0;
    std::uint64_t violations = 0;
    std::uint64_t identity_violations = 0;
    std::uint64_t negative_component_clamps = 0;
    std::string dominant_cause;  ///< "none" when the run is clean
    struct CauseRow {
      std::string cause;            ///< stable lane name
      std::uint64_t violations = 0; ///< violations blamed on this lane
      double seconds = 0.0;         ///< summed lane seconds over requests
      double p50_ms = 0.0;          ///< per-batch lane sketch percentiles
      double p99_ms = 0.0;
    };
    std::vector<CauseRow> causes;  ///< enum order (formation..dropped)
    struct GroupRow {
      std::string model;
      int shard = 0;
      bool strict = false;
      std::uint64_t requests = 0;
      std::uint64_t violations = 0;
      std::string dominant;  ///< empty when the group has no violations
    };
    std::vector<GroupRow> groups;  ///< model x shard x strictness rows
  };
  AttributionStats attribution;

  /// Strict request latency percentiles; present if keep_latency_samples,
  /// the store is exact and a strict request was recorded.
  PercentileTable strict_latencies;
  /// Per-node (time, resident GB) timelines; filled if keep_mem_timeline.
  std::vector<std::vector<std::pair<SimTime, MemGb>>> mem_timelines;
  /// Per-node weight access logs; filled if keep_cache_access_log.
  std::vector<std::vector<memcache::CacheAccess>> cache_access_logs;
};

/// Runs one experiment end to end. Deterministic for a given config.
Report run_experiment(const ExperimentConfig& config);

/// Sees a run's collector after the drain, before the report is distilled
/// from it.
using CollectorInspector = std::function<void(const metrics::Collector&)>;
/// The same run, handing `inspect` its collector: tests check the report
/// against the records it was selected from.
Report run_experiment(const ExperimentConfig& config,
                      const CollectorInspector& inspect);

/// Runs the same experiment for each scheme.
std::vector<Report> run_schemes(ExperimentConfig config,
                                const std::vector<sched::Scheme>& schemes);

/// Convenience: a baseline primary-experiment config (Wiki trace, 8 nodes,
/// 5000 rps, 50/50 mix) scaled to the given horizon.
ExperimentConfig primary_config(const std::string& strict_model,
                                Duration horizon = 120.0);

}  // namespace protean::harness
