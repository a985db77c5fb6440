// Latency accounting shared by every consumer of a completed Batch.
//
// Two things live here because the collector, the telemetry pipeline, the
// workflow runtime and the attribution engine must all agree on them bit
// for bit:
//
//  * the per-request arrival ramp — a batch records only its arrival span,
//    so request i of n's latency is interpolated linearly between the
//    earliest request's (`lat_first`) and the latest's (`lat_last`) — and
//    the SLO verdict on one such latency;
//  * the exact latency decomposition of a batch into eleven components
//    (Cause kFormation..kService) whose sum equals the batch's accounting
//    span by construction. This is the only code that splits a batch's
//    latency; the Fig. 6 breakdown (metrics::fold) and src/attr both read
//    its lanes.
#pragma once

#include <array>
#include <cstddef>

#include "workload/batch.h"

namespace protean::workload {

/// Latency of request `i` of a `count`-request batch: requests are spread
/// uniformly over the arrival span and request 0 is the earliest, i.e. the
/// longest-waiting. Every per-request loop uses this one expression, so
/// their results agree exactly.
inline double request_latency(double lat_first, double lat_last, int i,
                              int count) noexcept {
  const double frac =
      count == 1 ? 0.0
                 : static_cast<double>(i) / static_cast<double>(count - 1);
  return lat_first + (lat_last - lat_first) * frac;
}

/// The SLO verdict on one request latency (seconds, relative deadline).
inline bool meets_slo(double lat, double slo) noexcept {
  return lat <= slo + 1e-9;
}

/// Latency components (kFormation..kService) plus the drop pseudo-cause.
/// Order is load-bearing: classification ties break toward the lower enum
/// value, and telemetry/report rows follow this order.
enum class Cause : int {
  kFormation = 0,     ///< gateway batching wait before the batch sealed
  kQueue = 1,         ///< node-queue wait (the computed residual)
  kColdBoot = 2,      ///< container boot share of the cold start
  kWeightLoad = 3,    ///< model-weight load share of the cold start
  kSwapStall = 4,     ///< execution stalled on oversubscribed memory
  kDeficiency = 5,    ///< RDF slowdown from a smaller-than-7g slice
  kInterference = 6,  ///< co-location contention slowdown
  kTransfer = 7,      ///< inter-stage tensor transfer (workflows)
  kRetry = 8,         ///< wall time burned by failed dispatch attempts
  kBlackout = 9,      ///< queue time under a reconfiguration blackout
  kService = 10,      ///< irreducible solo time on 7g (not an overhead)
  kDropped = 11,      ///< request dropped before service (counter-only)
};

inline constexpr int kComponentCount = 11;  ///< kFormation..kService
inline constexpr int kOverheadCount = 10;   ///< classification lanes
inline constexpr int kCauseCount = 12;      ///< + kDropped

/// One request's (or batch's worst request's) exact latency split, seconds.
struct Decomposition {
  std::array<double, kComponentCount> parts{};

  double& operator[](Cause c) noexcept {
    return parts[static_cast<std::size_t>(c)];
  }
  double operator[](Cause c) const noexcept {
    return parts[static_cast<std::size_t>(c)];
  }
  double total() const noexcept {
    double sum = 0.0;
    for (double p : parts) sum += p;
    return sum;
  }
  Decomposition& operator+=(const Decomposition& o) noexcept {
    for (std::size_t i = 0; i < parts.size(); ++i) parts[i] += o.parts[i];
    return *this;
  }
  /// True when some lane is below -kIdentityEps: a negative queue residual
  /// (time charged twice) or a measured lane that went negative, e.g. a
  /// batch sealed before its interpolated first arrival.
  bool has_negative_lane() const noexcept;
};

/// Lanes below -kIdentityEps seconds are accounting bugs; a negative queue
/// residual means some interval of wall time was charged to two
/// components at once.
inline constexpr double kIdentityEps = 1e-9;

inline bool Decomposition::has_negative_lane() const noexcept {
  for (double p : parts) {
    if (p < -kIdentityEps) return true;
  }
  return false;
}

/// Pure decomposition of a completed batch over its accounting span:
/// `completed_at - first_arrival` for gateway batches (stage <= 0),
/// `completed_at - formed_at` for later workflow stages (their formation
/// wait is the predecessor stage's to account). Queue is the residual that
/// makes total() equal the span exactly; no component is clamped, so a
/// negative raw component surfaces as a negative queue residual instead of
/// hiding inside a clamp.
inline Decomposition decompose(const Batch& batch) noexcept {
  Decomposition d;
  const SimTime start =
      batch.stage > 0 ? batch.formed_at : batch.first_arrival;
  const double span = batch.completed_at - start;
  d[Cause::kFormation] =
      batch.stage > 0 ? 0.0 : batch.formed_at - batch.first_arrival;
  d[Cause::kWeightLoad] = batch.weight_load;
  d[Cause::kColdBoot] = batch.cold_start - batch.weight_load;
  d[Cause::kSwapStall] = batch.swap_stall;
  d[Cause::kDeficiency] = batch.solo_on_slice - batch.solo_min;
  d[Cause::kInterference] =
      batch.exec_time - batch.solo_on_slice - batch.swap_stall;
  d[Cause::kTransfer] = batch.transfer;
  d[Cause::kRetry] = batch.retry_overhead;
  d[Cause::kBlackout] = batch.reconfig_blackout;
  d[Cause::kService] = batch.solo_min;
  double known = 0.0;
  for (double p : d.parts) known += p;
  d[Cause::kQueue] = span - known;
  return d;
}

}  // namespace protean::workload
