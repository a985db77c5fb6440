// Requests and request batches.
//
// Requests are served in batches (Section 4.1). For memory efficiency a
// Batch does not own per-request objects: it records the request count and
// the arrival span; per-request end-to-end latencies are reconstructed at
// completion by interpolating arrivals across the span (arrivals within the
// sub-second batching window are near-uniform at the studied rates).
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/types.h"
#include "gpu/engine.h"
#include "gpu/mig.h"
#include "workload/model.h"

namespace protean::workload {

/// A single inference request (used by the public API and tests; the hot
/// path aggregates these into Batches at the gateway).
struct Request {
  RequestId id = 0;
  const ModelProfile* model = nullptr;
  bool strict = false;
  SimTime arrival = 0.0;
  /// Absolute deadline; kNeverTime for best-effort requests.
  SimTime deadline = kNeverTime;
};

/// A batch of same-model, same-strictness requests flowing through the
/// system. Timing fields are filled in as the batch progresses so that
/// workload::decompose (workload/latency.h) can split its latency into
/// queueing, cold start, resource deficiency, interference and the rest
/// (Figs. 2 and 6).
struct Batch {
  BatchId id = 0;
  const ModelProfile* model = nullptr;
  bool strict = false;
  int count = 0;                 ///< requests in the batch (<= batch_size)
  SimTime first_arrival = 0.0;   ///< arrival of the earliest request
  SimTime last_arrival = 0.0;    ///< arrival of the latest request
  SimTime formed_at = 0.0;       ///< when the gateway sealed the batch
  Duration slo = kNeverTime;     ///< relative SLO target (strict only)

  // --- filled during service ---
  NodeId node = 0;
  SimTime enqueued_at = 0.0;     ///< entered the node queue
  SimTime exec_start = 0.0;      ///< started executing on a slice
  SimTime completed_at = 0.0;
  Duration cold_start = 0.0;     ///< container cold start paid, if any
  MemGb reserved_gb = 0.0;       ///< memory reserved while booting, if any
  gpu::SliceProfile served_on = gpu::SliceProfile::k7g;
  Duration solo_min = 0.0;       ///< solo time on 7g (the "min possible")
  Duration solo_on_slice = 0.0;  ///< solo time on the slice actually used
  Duration exec_time = 0.0;      ///< observed execution time

  // --- fault-tolerance bookkeeping (unused when fault injection is off) ---
  int attempts = 0;              ///< dispatch retries consumed so far
  bool hedged = false;           ///< this copy is the hedged duplicate
  bool hedge_armed = false;      ///< a hedge timer was armed for this batch

  // --- workflow stage bookkeeping (src/workflow; inert when off) ---
  std::uint64_t flow = 0;        ///< owning flow id (0 = not a stage batch)
  int stage = -1;                ///< stage index within the workflow DAG
  bool has_pred = false;         ///< carries an unpaid inter-stage input edge
  NodeId pred_node = 0;          ///< node the critical predecessor ran on
  double edge_mb = 0.0;          ///< intermediate tensor size on that edge
  Duration transfer = 0.0;       ///< inter-stage transfer latency paid

  // --- latency capture (workload::decompose; bookkeeping, zero by default) ---
  Duration weight_load = 0.0;       ///< weight-load share of cold_start
  Duration swap_stall = 0.0;        ///< exec time lost to memory swapping
  Duration retry_overhead = 0.0;    ///< wall time burned by failed attempts
  Duration reconfig_blackout = 0.0; ///< queue time under a reconfig blackout
  Duration blackout_mark = 0.0;     ///< blackout seen at last retry accrual

  /// End-to-end latency of the batch's *earliest* request.
  Duration worst_latency() const noexcept {
    return completed_at - first_arrival;
  }

  /// Fraction of a full batch's GPU work this (possibly partial) batch
  /// represents. Kernel work scales near-linearly with the number of
  /// samples, with a fixed launch/framework floor.
  double work_fraction() const noexcept {
    if (model == nullptr || model->batch_size <= 0) return 1.0;
    const double fill =
        static_cast<double>(count) / static_cast<double>(model->batch_size);
    return 0.2 + 0.8 * std::min(1.0, fill);
  }
};

/// Canonical engine job for a batch on a slice profile: RDF-scaled solo
/// time, bandwidth and SM pressure, all scaled by the batch fill fraction.
/// Memory scales only partially (weights are fill-independent).
inline gpu::JobSpec job_spec_for(const Batch& batch,
                                 gpu::SliceProfile profile) {
  const double f = batch.work_fraction();
  gpu::JobSpec spec;
  spec.solo_time = batch.model->solo_time_on(profile) * f;
  spec.fbr = batch.model->fbr * f;
  spec.sm_share =
      std::min(1.0, batch.model->sm_req * f / gpu::compute_fraction(profile));
  spec.mem_gb = batch.model->mem_gb * (0.5 + 0.5 * f);
  spec.weight_gb = batch.model->weight_gb;
  spec.strict = batch.strict;
  spec.model_tag = batch.model;
  return spec;
}

}  // namespace protean::workload
