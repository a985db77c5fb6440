// Metrics collection for experiment runs.
//
// The collector receives every completed Batch, whose per-request
// end-to-end latencies are a linear ramp (arrivals interpolated uniformly
// across the batch's arrival span), tracks SLO compliance for strict
// requests, and keeps per-batch records in one store per class: a 24-byte
// latency ramp per batch, which every exact percentile is selected from,
// and for strict batches only, the latency breakdown from which Fig.
// 2/6-style stacked-bar rows are reconstructed (queueing vs cold start vs
// resource deficiency vs interference vs minimum possible time). Each
// breakdown is the fold of the batch's exact decomposition
// (workload/latency.h), taken once at record time, so its lanes sum to the
// batch's worst latency.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/types.h"
#include "metrics/sketch.h"
#include "metrics/stats.h"
#include "workload/batch.h"
#include "workload/latency.h"

namespace protean::metrics {

/// Fig. 6 latency attribution (seconds): one batch's, or an average.
struct Breakdown {
  double queue = 0.0;         // formation + queue + transfer + retry + blackout
  double cold = 0.0;          // cold boot + weight load
  double min_time = 0.0;      // solo on 7g: the "min possible time"
  double deficiency = 0.0;    // RDF-induced slowdown
  double interference = 0.0;  // MPS co-location slowdown
  double swap = 0.0;          // memory-oversubscription swap stall
  double total() const noexcept {
    return queue + cold + min_time + deficiency + interference + swap;
  }
  Breakdown& operator+=(const Breakdown& o) noexcept {
    queue += o.queue;
    cold += o.cold;
    min_time += o.min_time;
    deficiency += o.deficiency;
    interference += o.interference;
    swap += o.swap;
    return *this;
  }
  Breakdown& operator/=(double n) noexcept {
    queue /= n;
    cold /= n;
    min_time /= n;
    deficiency /= n;
    interference /= n;
    swap /= n;
    return *this;
  }
};

/// Folds the eleven exact lanes into Fig. 6's six. Every lane lands in
/// exactly one bucket, so total() equals d.total().
Breakdown fold(const workload::Decomposition& d) noexcept;

/// Per-batch latency record: the ramp every exact percentile of the batch's
/// class is selected from. The batch's model and SLO live in the
/// collector's stream table; `stream` indexes it. A strict record's Fig. 6
/// lanes are kept beside it in a store of their own; a best-effort record
/// has none, because the tail breakdown covers strict requests only.
struct BatchRamp {
  double worst_latency = 0.0;  // latency of the batch's earliest request
  double best_latency = 0.0;   // latency of the batch's latest request
  int count = 0;
  std::uint16_t stream = 0;  // index into the collector's {model, slo} table
};
static_assert(sizeof(BatchRamp) == 24,
              "a batch ramp is 24 bytes; the largest runs keep ~1M of them");

class Collector;

/// Append-only store of records in fixed chunks of kChunk. A chunk is
/// allocated once and never moved or copied, so growth has no transient
/// second copy and a record's address is stable. Read-only to everyone but
/// the collector.
template <typename T>
class Chunked {
  static_assert(std::is_trivially_destructible_v<T>,
                "chunks never run their records' destructors");

 public:
  static constexpr std::size_t kChunk = 4096;

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    reference operator*() const { return (*records_)[index_]; }
    pointer operator->() const { return &(*records_)[index_]; }
    const_iterator& operator++() {
      ++index_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++index_;
      return old;
    }
    bool operator==(const const_iterator& o) const noexcept {
      return index_ == o.index_;
    }

   private:
    friend class Chunked;
    const_iterator(const Chunked* records, std::size_t index)
        : records_(records), index_(index) {}
    const Chunked* records_ = nullptr;
    std::size_t index_ = 0;
  };

  Chunked() = default;
  Chunked(Chunked&& other) noexcept
      : chunks_(std::move(other.chunks_)),
        size_(std::exchange(other.size_, 0)) {}
  Chunked& operator=(Chunked&& other) noexcept {
    chunks_ = std::move(other.chunks_);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  const T& operator[](std::size_t i) const {
    return chunks_[i / kChunk]->records[i % kChunk];
  }
  const_iterator begin() const noexcept { return {this, 0}; }
  const_iterator end() const noexcept { return {this, size_}; }

 private:
  friend class Collector;

  /// Uninitialized storage: a record's pages are touched when it is
  /// written, not when its chunk is allocated.
  struct Chunk {
    Chunk() {}
    union {
      T records[kChunk];
    };
  };

  void push_back(const T& record) {
    const std::size_t offset = size_ % kChunk;
    if (offset == 0) chunks_.push_back(std::make_unique<Chunk>());
    std::construct_at(&chunks_.back()->records[offset], record);
    ++size_;
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::size_t size_ = 0;
};

/// The collector's batch records, one store per class, in recording order
/// within each: `lanes[i]` is the Fig. 6 breakdown of `strict[i]`, and its
/// lanes sum to that batch's worst latency. size() counts both classes.
struct BatchRecords {
  const Chunked<BatchRamp>& strict;
  const Chunked<BatchRamp>& be;
  const Chunked<Breakdown>& lanes;
  std::size_t size() const noexcept { return strict.size() + be.size(); }
};

/// Terminal record of one workflow flow (src/workflow): the per-request
/// side of the split record() API. A flow's stage batches are recorded
/// through record_stage() — health counters only, never request latencies
/// — and exactly one FlowRecord carries the end-to-end latency, SLO verdict
/// and critical-chain decomposition, so multi-stage requests are counted
/// once.
struct FlowRecord {
  BatchId id = 0;  ///< flow id (the sealed entry batch's gateway id)
  const workload::ModelProfile* model = nullptr;  ///< entry-stage model
  bool strict = true;
  int count = 0;  ///< end-user requests in the flow
  SimTime first_arrival = 0.0;
  SimTime last_arrival = 0.0;
  SimTime completed_at = 0.0;  ///< last sink stage completion
  double slo = kNeverTime;     ///< end-to-end deadline, relative seconds
  /// Summed decomposition of the critical stage chain, walked back from
  /// the last-finishing sink. Each stage's span starts at its critical
  /// predecessor's completion, so total() telescopes to the flow latency
  /// `completed_at - first_arrival`.
  workload::Decomposition chain;
};

class Collector {
 public:
  /// Batches whose earliest request arrived before this time are excluded
  /// from every statistic (cold-start warmup transient; the paper reports
  /// steady-state behaviour).
  void set_measure_from(SimTime t) noexcept { measure_from_ = t; }

  /// Batch completion observer: invoked once per recorded batch with
  /// (completion time, strict?, worst latency, best latency, request
  /// count, SLO seconds). Per-request latencies are the linear ramp
  /// workload::request_latency — the same spread the collector's own
  /// statistics use — so a consumer can expand them bit-identically
  /// (telemetry::TelemetryPipeline::observe_batch does). Batches arrive
  /// in non-decreasing completion-time order; batches filtered by
  /// measure_from never reach the observer. Null (the default) costs
  /// nothing — this is the live-telemetry feed (src/telemetry), kept out
  /// of the collector's own statistics and deliberately per-batch so the
  /// per-request hot loop stays tight.
  using BatchObserver =
      std::function<void(SimTime, bool, double, double, int, double)>;
  void set_batch_observer(BatchObserver observer) {
    observer_ = std::move(observer);
  }

  // ---- attribution feed (src/attr) ---------------------------------------
  //
  // Same contract as the batch observer, but with the full Batch and its
  // decomposition (taken once, in record()) in hand. Called after the dedup
  // and measure_from filters, i.e. exactly once per batch this collector's
  // own statistics counted — which is what makes the engine's violation
  // totals reproduce strict_violations() exactly. Function-typed (not a
  // direct dependency) so metrics stays below attr in the build graph.
  using AttrBatchHook =
      std::function<void(const workload::Batch&,
                         const workload::Decomposition&, double, double)>;
  void set_attr_batch_hook(AttrBatchHook hook) {
    attr_batch_hook_ = std::move(hook);
  }
  /// Invoked from record_dropped() with (strict, count).
  using AttrDropHook = std::function<void(bool, int)>;
  void set_attr_drop_hook(AttrDropHook hook) {
    attr_drop_hook_ = std::move(hook);
  }

  /// Switches percentiles and means from the exact per-batch ramps to
  /// relative-error quantile sketches (DDSketch-style, see
  /// metrics/sketch.h) fed every request latency: percentiles then carry an
  /// `alpha` relative-error bound instead of being exact, and
  /// `strict_latencies()`/`be_latencies()` stay empty. The batch records
  /// are kept either way, so this saves no memory. SLO-compliance counting
  /// is unaffected. Must be called before the first record().
  void use_sketch_store(double alpha);
  bool sketch_store() const noexcept { return strict_sketch_.has_value(); }

  /// Approximate bytes the exact percentiles are selected from: the ramp
  /// of every batch record of both classes, 24 bytes each, or the sketch
  /// buckets in sketch mode. The telemetry overhead bench compares the two.
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
  // health counters only, and the flow's single terminal record owns the
  // request latencies, the end-to-end SLO verdict and the Fig. 6 row.

  /// Per-stage path: health bookkeeping for one completed stage batch,
  /// given its decomposition (the workflow runtime takes it once and keeps
  /// it for the flow's critical chain). Never touches the latency store,
  /// SLO counters, observer, or batch records, so workflow statistics
  /// cannot double-count a request.
  void record_stage(const workload::Decomposition& stage);

  /// Per-request (terminal) path: one end-to-end flow. Claims the flow id
  /// (a retried/raced duplicate is discarded under dedup), applies the
  /// measure_from filter, records the same per-request latency ramp as
  /// record(), and counts SLO compliance against the flow's end-to-end
  /// deadline. A strict flow's Fig. 6 lanes are the fold of its chain.
  /// Returns true iff the flow entered the statistics (not deduped or
  /// filtered) — the attribution engine keys off the same verdict.
  bool record_flow(const FlowRecord& flow);

  std::uint64_t stages_recorded() const noexcept { return stages_recorded_; }
  std::uint64_t flows_recorded() const noexcept { return flows_recorded_; }

  // Model-weight cache events (src/memcache).
  void record_cache_hit() { ++cache_hits_; }
  void record_cache_miss() { ++cache_misses_; }
  void record_cache_eviction() { ++cache_evictions_; }

  // ---- fault-tolerance events (src/fault) --------------------------------

  /// When enabled, record() keeps a seen-set of batch ids and counts (then
  /// discards) any second completion of the same id — hedged duplicates must
  /// not inflate throughput or latency statistics.
  void set_dedup(bool enabled) { dedup_ = enabled; }

  /// True when a terminal event (completion or drop) for this batch id was
  /// already recorded. Only meaningful with dedup enabled.
  bool seen(BatchId id) const { return seen_.count(id) != 0; }

  /// Claims terminal ownership of a batch id: true the first time, false
  /// for later copies (whose terminal event must not be double-counted).
  /// Always true with dedup off.
  bool claim(BatchId id) { return !dedup_ || seen_.insert(id).second; }

  /// Requests whose in-flight execution was aborted by a fault. Lost work is
  /// not the same as dropped: the batch may still be retried and served.
  void record_lost_work(int count) {
    lost_requests_ += static_cast<std::uint64_t>(count);
  }
  void record_retry() { ++retries_; }
  void record_hedge() { ++hedges_; }

  // ---- queries -----------------------------------------------------------

  std::uint64_t strict_completed() const noexcept { return strict_total_; }
  std::uint64_t be_completed() const noexcept { return be_total_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::uint64_t cache_hits() const noexcept { return cache_hits_; }
  std::uint64_t cache_misses() const noexcept { return cache_misses_; }
  std::uint64_t cache_evictions() const noexcept { return cache_evictions_; }
  std::uint64_t lost_requests() const noexcept { return lost_requests_; }
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

  /// Recorded batches and stage batches whose decomposition has a lane
  /// below -kIdentityEps (Decomposition::has_negative_lane) — a nonzero
  /// value means some component accounting is broken.
  std::uint64_t negative_component_clamps() const noexcept {
    return negative_component_clamps_;
  }

  /// Latency percentiles in seconds over strict (or BE) request latencies,
  /// out[i] for ps[i], all from one selection. Exact: bit-identical to
  /// selecting over every request's float latency, read from the ramps of
  /// the batch records in place (select_percentiles over a RampSource:
  /// at most 16 bytes per in-scope record and, on latencies from 1 ms to
  /// 1000 s, under 0.5 MiB besides; no per-record bytes at four requests
  /// per record or fewer);
  /// within the configured relative-error bound in sketch mode.
  void percentiles(bool strict, std::span<const double> ps,
                   std::span<double> out) const;
  double strict_percentile(double p) const;
  double be_percentile(double p) const;
  /// Mean in seconds: the sequential sum of every request's float latency,
  /// in recording order, over the request count.
  double strict_mean() const;
  double be_mean() const;

  /// Request latencies as one ramp per batch record: a copy of 24 bytes
  /// per record, for tests and perfbench's timed rebuild. No report path
  /// copies them: run_experiment selects its percentile table from the
  /// records in place. Empty in sketch mode.
  LatencyRamps strict_latencies() const;
  LatencyRamps be_latencies() const;

  /// Average breakdown over strict batches whose worst latency is at or
  /// above the given percentile of strict batch latencies (the Fig. 6 tail
  /// bars use p=99).
  Breakdown tail_breakdown(double p) const { return tail_of(nullptr, p); }

  BatchRecords batch_records() const noexcept {
    return {strict_ramps_, be_ramps_, strict_lanes_};
  }

  // ---- per-model queries (multi-workload experiments, e.g. Fig. 2) -------

  /// Percentiles in seconds over one (model, strictness) stream, selected
  /// from its batch records in place as percentiles() is; always exact.
  void percentiles_for(const workload::ModelProfile* model, bool strict,
                       std::span<const double> ps,
                       std::span<double> out) const;
  /// Requests recorded in one (model, strictness) stream.
  std::uint64_t requests_for(const workload::ModelProfile* model,
                             bool strict) const;
  /// SLO compliance over one model's strict requests, in [0,100].
  double slo_compliance_pct_for(const workload::ModelProfile* model) const;
  /// Tail breakdown restricted to one model's strict batches.
  Breakdown tail_breakdown_for(const workload::ModelProfile* model,
                               double p) const {
    return tail_of(model, p);
  }

 private:
  /// Shared per-request path of record()/record_flow(): folds the linear
  /// latency ramp into the running sum (or sketch) and the SLO counters.
  void record_requests(bool strict, int count, double lat_first,
                       double lat_last, double slo);

  /// The batch's {model, slo} stream, interned into streams_.
  std::uint16_t intern_stream(const workload::ModelProfile* model,
                              double slo);

  /// One flag per stream: does it belong to `model` (every stream when
  /// null)?
  std::vector<bool> streams_of(const workload::ModelProfile* model) const;

  /// Appends the ramp of a recorded batch or flow to its class's store
  /// and, when strict, the fold of its decomposition to the lanes.
  void add_record(double lat_first, double lat_last, int count, bool strict,
                  const workload::ModelProfile* model, double slo,
                  const workload::Decomposition& d);

  /// One class's ramp store.
  const Chunked<BatchRamp>& ramps_of(bool strict) const noexcept {
    return strict ? strict_ramps_ : be_ramps_;
  }

  /// The strict (or BE) batch ramps of `model` (every model when null), as
  /// a RampSource that reads them in place; with `worst_only`, one request
  /// per record at its worst latency.
  class ScopedRamps;
  ScopedRamps scope(bool strict, const workload::ModelProfile* model,
                    bool worst_only = false) const;

  /// A copy of the ramps of one class, every model.
  LatencyRamps ramps(bool strict) const;

  /// Shared body of tail_breakdown()/tail_breakdown_for(): strict batches
  /// of `model` (every model when null). The cutoff is selected from their
  /// worst latencies in place; the lanes at or above it are then summed by
  /// index, in recording order.
  Breakdown tail_of(const workload::ModelProfile* model, double p) const;

  /// One class's recorded latencies: the recording-order sum of its float
  /// request latencies, its request count, and its batch records.
  struct LatencyTotals {
    double sum = 0.0;
    std::uint64_t requests = 0;
    std::size_t ramps = 0;
    double mean() const noexcept {
      return requests == 0 ? 0.0 : sum / static_cast<double>(requests);
    }
  };

  LatencyTotals strict_totals_;
  LatencyTotals be_totals_;
  std::optional<QuantileSketch> strict_sketch_;
  std::optional<QuantileSketch> be_sketch_;
  BatchObserver observer_;
  AttrBatchHook attr_batch_hook_;
  AttrDropHook attr_drop_hook_;
  Chunked<BatchRamp> strict_ramps_;
  Chunked<BatchRamp> be_ramps_;
  Chunked<Breakdown> strict_lanes_;  // lanes of strict_ramps_[i]
  /// The distinct {model, slo} pairs of the batch records; the SLO is
  /// compared by bit pattern so a NaN interns once.
  struct Stream {
    const workload::ModelProfile* model = nullptr;
    double slo = 0.0;
  };
  std::vector<Stream> streams_;
  std::uint16_t last_stream_ = 0;  // the previous record's stream
  std::uint64_t strict_total_ = 0;
  std::uint64_t strict_compliant_ = 0;
  std::uint64_t be_total_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t cache_evictions_ = 0;
  std::uint64_t lost_requests_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t hedges_ = 0;
  std::uint64_t duplicate_hedges_ = 0;
  std::uint64_t stages_recorded_ = 0;
  std::uint64_t flows_recorded_ = 0;
  std::uint64_t negative_component_clamps_ = 0;
  bool dedup_ = false;
  std::unordered_set<BatchId> seen_;
  SimTime measure_from_ = 0.0;
};

}  // namespace protean::metrics
