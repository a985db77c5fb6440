// Metrics collection for experiment runs.
//
// The collector receives every completed Batch, expands it into per-request
// end-to-end latencies (arrivals interpolated uniformly across the batch's
// arrival span), tracks SLO compliance for strict requests, and keeps
// per-batch latency breakdowns so that Fig. 2/6-style stacked-bar rows can
// be reconstructed (queueing vs cold start vs resource deficiency vs
// interference vs minimum possible time).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "metrics/sketch.h"
#include "metrics/stats.h"
#include "workload/batch.h"

namespace protean::metrics {

/// Per-batch latency attribution (seconds). The components sum to the
/// latency of the batch's earliest (= worst-off) request.
struct BatchBreakdown {
  SimTime completed_at = 0.0;
  double worst_latency = 0.0;
  double best_latency = 0.0;  // latency of the batch's latest request
  double queue = 0.0;
  double cold = 0.0;
  double min_time = 0.0;      // solo on 7g: the "min possible time"
  double deficiency = 0.0;    // RDF-induced slowdown
  double interference = 0.0;  // MPS co-location slowdown
  double swap = 0.0;          // memory-oversubscription swap stall
  double slo = 0.0;           // relative deadline (strict only)
  int count = 0;
  bool strict = false;
  const workload::ModelProfile* model = nullptr;
};

/// Aggregated latency attribution, e.g. averaged over the tail.
struct Breakdown {
  double queue = 0.0;
  double cold = 0.0;
  double min_time = 0.0;
  double deficiency = 0.0;
  double interference = 0.0;
  double swap = 0.0;
  double total() const noexcept {
    return queue + cold + min_time + deficiency + interference + swap;
  }
};

/// Terminal record of one workflow flow (src/workflow): the per-request
/// side of the split record() API. A flow's stage batches are recorded
/// through record_stage() — components only, never request latencies — and
/// exactly one FlowRecord carries the end-to-end latency, SLO verdict and
/// summed per-stage components, so multi-stage requests are counted once.
struct FlowRecord {
  BatchId id = 0;  ///< flow id (the sealed entry batch's gateway id)
  const workload::ModelProfile* model = nullptr;  ///< entry-stage model
  bool strict = true;
  int count = 0;  ///< end-user requests in the flow
  SimTime first_arrival = 0.0;
  SimTime last_arrival = 0.0;
  SimTime completed_at = 0.0;  ///< last sink stage completion
  double slo = kNeverTime;     ///< end-to-end deadline, relative seconds
  // Per-stage latencies folded into end-to-end components:
  Duration queue = 0.0;         ///< summed stage queueing delays
  Duration cold = 0.0;          ///< summed stage cold starts
  Duration min_time = 0.0;      ///< critical-path solo service time
  Duration deficiency = 0.0;    ///< summed RDF-induced slowdowns
  Duration interference = 0.0;  ///< summed co-location slowdowns
  Duration swap = 0.0;          ///< summed swap-stall time
  Duration transfer = 0.0;      ///< summed inter-stage transfer hops
};

class Collector {
 public:
  /// Batches whose earliest request arrived before this time are excluded
  /// from every statistic (cold-start warmup transient; the paper reports
  /// steady-state behaviour).
  void set_measure_from(SimTime t) noexcept { measure_from_ = t; }
  SimTime measure_from() const noexcept { return measure_from_; }

  /// Batch completion observer: invoked once per recorded batch with
  /// (completion time, strict?, worst latency, best latency, request
  /// count, SLO seconds). Per-request latencies are the linear ramp
  /// `lat_first + (lat_last - lat_first) * i / (count - 1)` — the same
  /// spread the collector's own statistics use — so a consumer can expand
  /// them bit-identically (telemetry::TelemetryPipeline::observe_batch
  /// does). Batches arrive in non-decreasing completion-time order;
  /// batches filtered by measure_from never reach the observer. Null
  /// (the default) costs nothing — this is the live-telemetry feed
  /// (src/telemetry), kept out of the collector's own statistics and
  /// deliberately per-batch so the per-request hot loop stays tight.
  using BatchObserver =
      std::function<void(SimTime, bool, double, double, int, double)>;
  void set_batch_observer(BatchObserver observer) {
    observer_ = std::move(observer);
  }

  // ---- attribution feed (src/attr) ---------------------------------------
  //
  // Same contract as the batch observer, but with the full Batch in hand so
  // the attribution engine can decompose it. Called after the dedup and
  // measure_from filters, i.e. exactly once per batch this collector's own
  // statistics counted — which is what makes the engine's violation totals
  // reproduce strict_violations() exactly. Function-typed (not a direct
  // dependency) so metrics stays below attr in the build graph.
  using AttrBatchHook =
      std::function<void(const workload::Batch&, double, double)>;
  void set_attr_batch_hook(AttrBatchHook hook) {
    attr_batch_hook_ = std::move(hook);
  }
  /// Invoked from record_dropped() with (strict, count).
  using AttrDropHook = std::function<void(bool, int)>;
  void set_attr_drop_hook(AttrDropHook hook) {
    attr_drop_hook_ = std::move(hook);
  }

  /// Switches the latency store from per-request float vectors to
  /// relative-error quantile sketches (DDSketch-style, see
  /// metrics/sketch.h): percentiles then carry an `alpha` relative-error
  /// bound instead of being exact, `strict_latencies()`/`be_latencies()`
  /// stay empty, and memory no longer grows O(requests). SLO-compliance
  /// counting is unaffected — it never reads the store. Must be called
  /// before the first record().
  void use_sketch_store(double alpha);
  bool sketch_store() const noexcept { return strict_sketch_.has_value(); }

  /// Approximate heap footprint of the latency store (bytes): vector
  /// capacities, or sketch buckets in sketch mode. The telemetry overhead
  /// bench compares the two.
  std::size_t latency_store_bytes() const noexcept;

  /// Records a completed batch. The batch must have completed_at set.
  void record(const workload::Batch& batch);

  /// Records a request that was dropped (e.g. VM evicted before service).
  void record_dropped(bool strict, int count);

  // ---- workflow paths (src/workflow) -------------------------------------
  //
  // record() assumes one batch == one set of end-user requests. Workflow
  // stage batches violate that (one request traverses several stages), so
  // they split into a per-stage path and a per-request path: stages feed
  // component aggregates only, and the flow's single terminal record owns
  // the request latencies and the end-to-end SLO verdict.

  /// Per-stage path: component bookkeeping for one completed stage batch.
  /// Never touches the latency store, SLO counters, observer, or batch
  /// records, so workflow statistics cannot double-count a request.
  void record_stage(const workload::Batch& batch);

  /// Per-request (terminal) path: one end-to-end flow. Claims the flow id
  /// (a retried/raced duplicate is discarded under dedup), applies the
  /// measure_from filter, expands the same per-request latency ramp as
  /// record(), and counts SLO compliance against the flow's end-to-end
  /// deadline. The batch-records entry folds transfer time into queueing.
  /// Returns true iff the flow entered the statistics (not deduped or
  /// filtered) — the attribution engine keys off the same verdict.
  bool record_flow(const FlowRecord& flow);

  std::uint64_t stages_recorded() const noexcept { return stages_recorded_; }
  std::uint64_t flows_recorded() const noexcept { return flows_recorded_; }
  /// Component sums over every recorded stage batch (diagnostics;
  /// unfiltered by measure_from).
  double stage_queue_seconds() const noexcept { return stage_queue_seconds_; }
  double stage_cold_seconds() const noexcept { return stage_cold_seconds_; }
  double stage_exec_seconds() const noexcept { return stage_exec_seconds_; }

  void record_cold_start() { ++cold_starts_; }

  // Model-weight cache events (src/memcache).
  void record_cache_hit() { ++cache_hits_; }
  void record_cache_miss() { ++cache_misses_; }
  void record_cache_eviction() { ++cache_evictions_; }

  // ---- fault-tolerance events (src/fault) --------------------------------

  /// When enabled, record() keeps a seen-set of batch ids and counts (then
  /// discards) any second completion of the same id — hedged duplicates must
  /// not inflate throughput or latency statistics.
  void set_dedup(bool enabled) { dedup_ = enabled; }

  /// Restores the pre-indexed-refactor latency store growth: an exact-size
  /// reserve per recorded batch, which libstdc++ turns into a full realloc +
  /// copy of the store every time (quadratic bytes moved over a run). Kept
  /// selectable so `--scale-mode legacy` benchmarks the historical hot path
  /// faithfully; the recorded values are identical either way.
  void set_legacy_reserve(bool enabled) { legacy_reserve_ = enabled; }

  /// True when a terminal event (completion or drop) for this batch id was
  /// already recorded. Only meaningful with dedup enabled.
  bool seen(BatchId id) const { return seen_.count(id) != 0; }

  /// Claims terminal ownership of a batch id: true the first time, false
  /// for later copies (whose terminal event must not be double-counted).
  /// Always true with dedup off.
  bool claim(BatchId id) { return !dedup_ || seen_.insert(id).second; }

  /// Requests whose in-flight execution was aborted by a fault. Lost work is
  /// not the same as dropped: the batch may still be retried and served.
  void record_lost_work(bool strict, int count) {
    lost_requests_ += static_cast<std::uint64_t>(count);
    if (strict) lost_strict_requests_ += static_cast<std::uint64_t>(count);
  }
  void record_retry() { ++retries_; }
  void record_hedge() { ++hedges_; }

  // ---- queries -----------------------------------------------------------

  std::uint64_t strict_completed() const noexcept { return strict_total_; }
  std::uint64_t be_completed() const noexcept { return be_total_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::uint64_t cold_starts() const noexcept { return cold_starts_; }
  std::uint64_t cache_hits() const noexcept { return cache_hits_; }
  std::uint64_t cache_misses() const noexcept { return cache_misses_; }
  std::uint64_t cache_evictions() const noexcept { return cache_evictions_; }
  std::uint64_t lost_requests() const noexcept { return lost_requests_; }
  std::uint64_t lost_strict_requests() const noexcept {
    return lost_strict_requests_;
  }
  std::uint64_t retries() const noexcept { return retries_; }
  std::uint64_t hedges() const noexcept { return hedges_; }
  std::uint64_t duplicate_hedges() const noexcept { return duplicate_hedges_; }

  /// Percentage of strict requests that met their SLO deadline, in [0,100].
  double slo_compliance_pct() const noexcept;

  /// Strict requests that missed their deadline (dropped strict requests
  /// count: they enter strict_total_ but never strict_compliant_).
  std::uint64_t strict_violations() const noexcept {
    return strict_total_ - strict_compliant_;
  }

  /// Times the raw queue-delay expression in record()/record_stage() went
  /// below -1e-9 before clamping — a nonzero value means some component
  /// accounting double-charged time (see queue_delay()'s clamp).
  std::uint64_t negative_component_clamps() const noexcept {
    return negative_component_clamps_;
  }

  /// Latency percentile in seconds over strict (or BE) request latencies.
  /// Exact over the sample vectors; within the configured relative-error
  /// bound in sketch mode. The exact path selects in place on the store
  /// (see strict_latencies()): const to callers, but it reorders the
  /// samples, so one collector must not be queried from two threads at
  /// once. SweepRunner gives every run its own collector.
  double strict_percentile(double p) const;
  double be_percentile(double p) const;
  /// Mean in seconds. Exact-store means are the sequential sum over the
  /// samples in recording order, whatever percentile queries did since.
  double strict_mean() const;
  double be_mean() const;

  /// Full latency samples (seconds), for CDFs and significance tests.
  /// Empty in sketch mode (per-request samples are not retained). The
  /// element order is unspecified: percentile queries reorder the store in
  /// place, so only order-free statistics of it are meaningful.
  const std::vector<float>& strict_latencies() const noexcept {
    return strict_exact_.samples;
  }
  const std::vector<float>& be_latencies() const noexcept {
    return be_exact_.samples;
  }

  /// Moves the strict samples out (order unspecified, as above) and leaves
  /// the strict store empty: report finalization hands the buffer to the
  /// Report instead of copying it. Call it after the last strict
  /// percentile or mean query; the completion counters are unaffected.
  std::vector<float> take_strict_latencies() noexcept;

  /// Average breakdown over strict batches whose worst latency is at or
  /// above the given percentile of strict batch latencies (the Fig. 6 tail
  /// bars use p=99).
  Breakdown tail_breakdown(double p) const;

  /// Average breakdown over all strict batches.
  Breakdown mean_breakdown() const;

  const std::vector<BatchBreakdown>& batch_records() const noexcept {
    return batches_;
  }

  // ---- per-model queries (multi-workload experiments, e.g. Fig. 2) -------

  /// Per-request latencies of one (model, strictness) stream, seconds.
  std::vector<float> latencies_for(const workload::ModelProfile* model,
                                   bool strict) const;
  /// SLO compliance over one model's strict requests, in [0,100].
  double slo_compliance_pct_for(const workload::ModelProfile* model) const;
  /// Tail breakdown restricted to one model's strict batches.
  Breakdown tail_breakdown_for(const workload::ModelProfile* model,
                               double p) const;

 private:
  /// Shared per-request path of record()/record_flow(): expands the linear
  /// latency ramp into the store and the SLO counters. Bit-identical to
  /// the loop record() always ran, so single-model runs are unchanged.
  void record_requests(bool strict, int count, double lat_first,
                       double lat_last, double slo);

  /// Exact per-request store of one strictness class. `sum` folds
  /// samples[0, summed) in recording order; every reorder first folds the
  /// whole store, so the samples past `summed` are always the newest ones,
  /// still in recording order, and the mean never depends on queries.
  struct ExactStore {
    std::vector<float> samples;
    double sum = 0.0;
    std::size_t summed = 0;

    void fold() noexcept;
    double percentile(double p);
    double mean() noexcept;
  };

  // Mutable: percentile queries are logically const but select in place.
  mutable ExactStore strict_exact_;
  mutable ExactStore be_exact_;
  std::optional<QuantileSketch> strict_sketch_;
  std::optional<QuantileSketch> be_sketch_;
  BatchObserver observer_;
  AttrBatchHook attr_batch_hook_;
  AttrDropHook attr_drop_hook_;
  std::vector<BatchBreakdown> batches_;
  std::uint64_t strict_total_ = 0;
  std::uint64_t strict_compliant_ = 0;
  std::uint64_t be_total_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t cold_starts_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t cache_evictions_ = 0;
  std::uint64_t lost_requests_ = 0;
  std::uint64_t lost_strict_requests_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t hedges_ = 0;
  std::uint64_t duplicate_hedges_ = 0;
  std::uint64_t stages_recorded_ = 0;
  std::uint64_t flows_recorded_ = 0;
  double stage_queue_seconds_ = 0.0;
  double stage_cold_seconds_ = 0.0;
  double stage_exec_seconds_ = 0.0;
  std::uint64_t negative_component_clamps_ = 0;
  bool dedup_ = false;
  bool legacy_reserve_ = false;
  std::unordered_set<BatchId> seen_;
  SimTime measure_from_ = 0.0;
};

}  // namespace protean::metrics
