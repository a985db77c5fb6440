// SLO-violation attribution: exact per-request latency decomposition.
//
// Every recorded strict request decomposes into named components —
// formation wait, queue wait, cold boot, weight load, swap stall, resource
// deficiency, interference, inter-stage transfer, retry overhead, reconfig
// blackout, and the irreducible solo service time — whose sum equals the
// observed end-to-end latency *by construction*: queue wait is the residual
// after every directly-measured component, and the engine CHECK-enforces
// that the residual never goes negative (which would mean some interval of
// wall time was charged to two components at once). Debug builds die on a
// violated identity; release builds count it (`identity_violations()`).
//
// The engine taps the Collector's attribution hooks, so it sees exactly the
// batches the collector's own statistics counted (post dedup and
// measure_from). A request is classified as a violation with precisely the
// collector's arithmetic (workload::meets_slo over the same
// workload::request_latency arrival ramp), which is what makes
//
//     engine violations == Collector::strict_violations()
//
// an exact invariant — and what lets tools/slo_explain reproduce the
// report's violation count from the telemetry JSONL alone. Each violating
// request is attributed to its dominant (largest) overhead component; the
// solo service time is never a "cause".
//
// Everything here is observational: no hook mutates simulation state or
// consumes randomness, so attr-off runs are byte-identical to pre-attr
// builds and attr-on runs are deterministic across repeats.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "attr/config.h"
#include "common/types.h"
#include "metrics/collector.h"
#include "metrics/sketch.h"
#include "workload/batch.h"
#include "workload/latency.h"

namespace protean::obs {
class Tracer;
}

namespace protean::attr {

// The decomposition itself lives in the workload layer (one split shared
// with the Collector's Fig. 6 breakdown); re-exported here under the names
// the engine, its reports and its tests use.
using workload::Cause;
using workload::decompose;
using workload::Decomposition;
using workload::kCauseCount;
using workload::kComponentCount;
using workload::kOverheadCount;

/// Stable lowercase name ("formation", "queue", ..., "dropped").
const char* cause_name(Cause cause) noexcept;

class AttributionEngine {
 public:
  /// `tracer` (nullable) receives an "attr" instant per violating batch.
  explicit AttributionEngine(const AttrConfig& config,
                             obs::Tracer* tracer = nullptr);

  /// Maps a node id to its control-plane shard for group keying; identity
  /// (shard 0) until set.
  void set_shard_of(std::function<int(NodeId)> shard_of) {
    shard_of_ = std::move(shard_of);
  }

  /// Identity check on one decomposition: a queue residual below
  /// -kIdentityEps is counted (release) or fatal (debug). WorkflowRuntime
  /// runs it on every completed stage's split.
  void check_identity(const Decomposition& d);

  /// One recorded gateway batch (Collector::record() hook) with the
  /// decomposition the collector took: checks the identity, aggregates
  /// sketches/groups, classifies strict violations over the collector's
  /// interpolated arrival ramp.
  void observe_batch(const workload::Batch& batch, const Decomposition& d,
                     double lat_first, double lat_last);

  /// One recorded end-to-end flow, split along `flow.chain` (the critical
  /// stage chain WorkflowRuntime walks); `sink_node` is the node its final
  /// stage completed on. The identity check here is two-sided: the chain
  /// must telescope to the flow latency.
  void observe_flow(const metrics::FlowRecord& flow, NodeId sink_node);

  /// One dropped request set (Collector::record_dropped() hook). A dropped
  /// strict request is a violation with the kDropped pseudo-cause.
  void observe_dropped(bool strict, int count);

  // ---- queries -----------------------------------------------------------

  /// Requests observed across recorded batches/flows (strict + BE).
  std::uint64_t requests() const noexcept { return requests_; }
  std::uint64_t batches() const noexcept { return batches_; }
  /// Strict SLO violations: classified misses plus dropped strict requests.
  /// Exactly Collector::strict_violations() when fed from the same run.
  std::uint64_t violations() const noexcept { return violations_; }
  std::uint64_t violations_for(Cause c) const noexcept {
    return cause_violations_[static_cast<std::size_t>(c)];
  }
  /// Latency-identity violations (always 0 unless accounting is broken;
  /// debug builds die instead of counting).
  std::uint64_t identity_violations() const noexcept {
    return identity_violations_;
  }
  /// Summed seconds of one component over every observed batch/flow.
  double component_seconds(Cause c) const noexcept {
    return cause_seconds_[static_cast<std::size_t>(c)];
  }
  /// Per-component DDSketch (seconds) over observed batches/flows.
  const metrics::QuantileSketch& sketch(Cause c) const noexcept {
    return sketches_[static_cast<std::size_t>(c)];
  }
  /// Name of the cause with the most violations ("none" when clean).
  std::string dominant_cause() const;

  /// Per-(model, shard, strictness) aggregation for the report's drill-down
  /// rows, sorted by model name, shard, then strict-first.
  struct GroupRow {
    std::string model;
    int shard = 0;
    bool strict = false;
    std::uint64_t requests = 0;
    std::uint64_t violations = 0;
    Cause dominant = Cause::kQueue;  ///< meaningless when violations == 0
  };
  std::vector<GroupRow> group_rows() const;

 private:
  struct GroupStats {
    std::uint64_t requests = 0;
    std::uint64_t violations = 0;
    std::array<std::uint64_t, kOverheadCount> causes{};
  };

  /// Shared aggregation path of observe_batch()/observe_flow().
  void aggregate(const Decomposition& d, const workload::ModelProfile* model,
                 NodeId node, bool strict, int count, double lat_first,
                 double lat_last, double slo, BatchId id);

  AttrConfig config_;
  obs::Tracer* tracer_ = nullptr;
  std::function<int(NodeId)> shard_of_;

  std::vector<metrics::QuantileSketch> sketches_;  // one per component
  std::array<double, kComponentCount> cause_seconds_{};
  std::array<std::uint64_t, kCauseCount> cause_violations_{};
  std::map<std::tuple<const workload::ModelProfile*, int, bool>, GroupStats>
      groups_;
  std::uint64_t requests_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t violations_ = 0;
  std::uint64_t identity_violations_ = 0;
};

}  // namespace protean::attr
