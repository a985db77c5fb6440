// The PROTEAN scheduler: the paper's primary contribution, assembled from
// the Job Distribution logic (Algorithm 1), the GPU Reconfigurator
// (Algorithm 2), request reordering, and MPS+MIG execution.
//
// The Oracle variant (Section 6.2's final comparison) shares every policy
// but evaluates geometry decisions with perfect knowledge of the current
// demand (no EWMA lag, no wait counter); the harness additionally grants it
// zero reconfiguration downtime.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "cluster/node.h"
#include "cluster/scheduler.h"
#include "core/distributor.h"
#include "core/reconfig.h"

namespace protean::core {

struct ProteanOptions {
  ReconfigConfig reconfig;
  /// Request reordering (Section 4.1); ablation knob.
  bool reorder = true;
  /// Eq. 2-driven strict placement (Guideline 2); ablation knob — off
  /// falls back to 'largest slice that admits' (the Section 2.2 straw man).
  bool use_eta = true;
  /// Dynamic reconfiguration (Section 4.4); ablation knob — off pins the
  /// initial geometry for the whole run.
  bool dynamic_reconfig = true;
  /// Oracle mode (perfect prediction, immediate geometry application).
  bool oracle = false;
  /// Software-defined slicing (src/softgpu): GPUs run in kSoftSlice mode,
  /// where Algorithm 2's geometry changes apply in place with zero
  /// downtime. Free reconfiguration removes the need for hysteresis, so
  /// the scheme variant also drops the wait counter to 1.
  bool softmig = false;
  /// Pipeline-conscious variant (ESG-style, src/workflow): the dispatcher
  /// prefers co-locating adjacent DAG stages and the harness splits the
  /// end-to-end SLO budget across stages by profiled RDF weight. Identical
  /// to plain PROTEAN when workflows are off.
  bool pipeline = false;
};

class ProteanScheduler : public cluster::Scheduler {
 public:
  explicit ProteanScheduler(ProteanOptions options = {});

  std::string name() const override;
  gpu::SharingMode sharing_mode() const override {
    return options_.softmig ? gpu::SharingMode::kSoftSlice
                            : gpu::SharingMode::kMps;
  }
  /// Every GPU starts at Algorithm 2's decision for zero best-effort
  /// demand, (4g,3g).
  gpu::Geometry initial_geometry() const override {
    return gpu::Geometry::g4_3();
  }
  bool reorder_strict_first() const override { return options_.reorder; }
  std::optional<cluster::DispatchPolicy> dispatch_policy() const override {
    // The Dispatcher ② is a PROTEAN component: it spreads batches to the
    // least-loaded worker so per-node bursts don't force co-location.
    return cluster::DispatchPolicy::kLeastLoaded;
  }

  bool pipeline_conscious() const override { return options_.pipeline; }

  gpu::Slice* place(const workload::Batch& batch,
                    cluster::WorkerNode& node) override;
  void on_monitor(cluster::WorkerNode& node, int& reconfig_budget) override;

  /// Reconfigurator state for a node (tests / introspection).
  const Reconfigurator* reconfigurator(NodeId node) const;

 private:
  ProteanOptions options_;
  std::map<NodeId, Reconfigurator> per_node_;
  /// place()'s tagged-slice list, reused across calls so a placement
  /// allocates nothing.
  std::vector<TaggedSlice> tagged_;
};

}  // namespace protean::core
