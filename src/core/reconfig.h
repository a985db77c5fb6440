// GPU Reconfigurator ⑥ — Algorithm 2 of the paper.
//
// Every monitor interval W, the reconfigurator predicts the upcoming
// best-effort memory footprint (EWMA over observed BE demand), picks the
// smallest slice set from [[1g,2g],[3g]] that can hold it, applies the
// T_low/T_high occupancy thresholds, falls back to (4g,3g) in corner cases,
// and only reconfigures after the decision disagrees with the current
// geometry `wait_limit` consecutive times (trend detection).
#pragma once

#include <optional>

#include "common/types.h"
#include "gpu/mig.h"
#include "metrics/stats.h"

namespace protean::core {

struct ReconfigConfig {
  double ewma_alpha = 0.25;
  int wait_limit = 3;
  /// Predicted BE occupancy of the chosen small-slice set below which
  /// consolidating on (4g,3g) is preferred (T_low, step d).
  double t_low = 0.10;
  /// Occupancy above which the small set would be overwhelmed (T_high,
  /// step e).
  double t_high = 0.90;
  /// Perfect-knowledge mode for the Oracle comparison: skips the EWMA
  /// (uses the instantaneous demand) and the wait counter.
  bool oracle = false;
};

/// One decision round's view of a node's queue (Algorithm 2 line 2's
/// curr_queue_info).
struct QueueInfo {
  /// Best-effort memory demand observed now: queued BE batches plus BE
  /// residents on the GPU, in GB.
  MemGb be_mem_demand = 0.0;
  /// Number of BE batches in that demand.
  int be_batches = 0;
  /// Memory footprint of the largest pending BE batch: a slice set is only
  /// viable if one of its slices can hold a single batch at all.
  MemGb be_batch_mem = 0.0;
  /// Resource Deficiency Factors of the current BE model on the candidate
  /// small slices (profiling input to the T_low/T_high thresholds): a model
  /// that slows 3× on a 2g effectively occupies the set 3× longer.
  double be_rdf_2g = 1.0;
  double be_rdf_3g = 1.0;
};

/// Per-GPU reconfiguration state machine.
class Reconfigurator {
 public:
  explicit Reconfigurator(const ReconfigConfig& config = {});

  struct Decision {
    const gpu::Geometry& target;  ///< a geometry built once; see below
    bool reconfigure = false;     ///< true when the wait limit has elapsed
  };

  /// Runs Algorithm 2 for one monitor interval.
  Decision evaluate(const QueueInfo& info, const gpu::Geometry& current);

  double predicted_be_mem() const noexcept { return ewma_.value(); }
  int wait_counter() const noexcept { return wait_ctr_; }
  const ReconfigConfig& config() const noexcept { return config_; }

  /// The geometry Algorithm 2 would pick for a given predicted BE memory
  /// footprint and queue info (pure function; exposed for tests and the
  /// Oracle sweep). The answer is Geometry::g4_3() or Geometry::g4_2_1()
  /// (the 3g set plus the 4g is (4g,3g) itself), both built once, so an
  /// evaluation allocates nothing.
  static const gpu::Geometry& choose_geometry(MemGb pred_be_mem,
                                              const QueueInfo& info,
                                              const ReconfigConfig& config);

 private:
  ReconfigConfig config_;
  metrics::Ewma ewma_;
  int wait_ctr_ = 0;
};

}  // namespace protean::core
