#include "core/protean.h"

#include <algorithm>
#include <utility>


namespace protean::core {

ProteanScheduler::ProteanScheduler(ProteanOptions options)
    : options_(std::move(options)) {
  if (options_.oracle) options_.reconfig.oracle = true;
}

std::string ProteanScheduler::name() const {
  if (options_.oracle) return "Oracle";
  if (options_.softmig) return "PROTEAN (softmig)";
  if (options_.pipeline) return "PROTEAN-Pipe";
  if (!options_.dynamic_reconfig) return "PROTEAN (static)";
  if (!options_.use_eta) return "PROTEAN (no eta)";
  if (!options_.reorder) return "PROTEAN (no reorder)";
  return "PROTEAN";
}

gpu::Slice* ProteanScheduler::place(const workload::Batch& batch,
                                    cluster::WorkerNode& node) {
  const char* scheme = options_.oracle ? "oracle" : "protean";
  // The node caches the canonical ascending slice order per GPU topology
  // version, so the per-placement sort disappears from the hot path.
  const auto& slices = node.sorted_slices();
  if (slices.empty()) {  // reconfiguring
    cluster::trace_placement(node, batch, scheme, 0, nullptr, 0.0);
    return nullptr;
  }
  if (batch.strict) {
    if (!options_.use_eta) {
      // Ablation: always take the largest admitting slice, ignoring the
      // interference/deficiency trade-off of Eq. 2.
      for (auto it = slices.rbegin(); it != slices.rend(); ++it) {
        gpu::Slice& slice = **it;
        if (batch.model->fits(slice.profile()) &&
            slice.can_admit(workload::job_spec_for(batch, slice.profile()))) {
          cluster::trace_placement(node, batch, scheme, slices.size(), &slice,
                                   0.0);
          return &slice;
        }
      }
      cluster::trace_placement(node, batch, scheme, slices.size(), nullptr,
                               0.0);
      return nullptr;
    }
    // Algorithm 1's tags are read by the Eq. 2 strict placement only.
    JobDistributor::compute_tags_into(slices, node.be_mem_queued(), tagged_);
    const double density = node.be_fbr_density();
    double eta = 0.0;
    gpu::Slice* chosen = JobDistributor::choose_strict_slice(
        batch, tagged_, density, node.cache(), &eta);
    cluster::trace_placement(node, batch, scheme, slices.size(), chosen, eta);
    return chosen;
  }
  // The largest slice is only reserved while strict work is actually
  // around (resident, queued, or seen recently); a 100%-BE workload may
  // use the whole GPU (Table 5).
  bool strict_present = slices.back()->strict_jobs() > 0;
  if (!strict_present && !node.queue().empty()) {
    strict_present = node.queue().front().strict;
  }
  if (!strict_present) {
    strict_present = batch.enqueued_at - node.last_strict_seen() < 3.0;
  }
  gpu::Slice* chosen = JobDistributor::choose_best_effort_slice(
      batch, slices, strict_present, node.cache());
  cluster::trace_placement(node, batch, scheme, slices.size(), chosen, 0.0);
  return chosen;
}

void ProteanScheduler::on_monitor(cluster::WorkerNode& node,
                                  int& reconfig_budget) {
  if (!options_.dynamic_reconfig) return;
  auto [it, inserted] =
      per_node_.try_emplace(node.id(), options_.reconfig);
  Reconfigurator& reconfigurator = it->second;

  QueueInfo info;
  // Instantaneous BE footprint (catches backlogs) combined with the
  // Little's-law estimate of steady concurrent demand (arrival rate ×
  // service × footprint — robust when short BE jobs drain between ticks).
  const cluster::WorkerNode::BeQueueSums queued = node.be_queue_sums();
  info.be_mem_demand = queued.mem;
  info.be_batches = static_cast<int>(queued.count);
  for (const gpu::Slice* slice : std::as_const(node.gpu()).slices()) {
    info.be_mem_demand += slice->be_memory_in_use();
  }
  info.be_mem_demand =
      std::max(info.be_mem_demand, node.take_be_demand_estimate());
  info.be_batch_mem = node.last_be_batch_mem();
  const workload::ModelProfile* be_model = node.last_be_model();
  if (queued.max_mem_model != nullptr && queued.max_mem > info.be_batch_mem) {
    info.be_batch_mem = queued.max_mem;
    be_model = queued.max_mem_model;
  }
  if (be_model != nullptr) {
    info.be_rdf_2g = be_model->rdf(gpu::SliceProfile::k2g);
    info.be_rdf_3g = be_model->rdf(gpu::SliceProfile::k3g);
  }

  const auto decision =
      reconfigurator.evaluate(info, node.gpu().geometry());
  if (!decision.reconfigure) return;
  // Soft-sliced GPUs repartition in place with zero downtime, so they are
  // exempt from the cluster's concurrent-reconfiguration budget (which
  // exists to bound simultaneous MIG downtime).
  const bool soft = node.gpu().mode() == gpu::SharingMode::kSoftSlice;
  if (!soft && (reconfig_budget <= 0 || node.gpu().reconfiguring())) return;
  if (node.begin_reconfigure(decision.target) && !soft) --reconfig_budget;
}

const Reconfigurator* ProteanScheduler::reconfigurator(NodeId node) const {
  const auto it = per_node_.find(node);
  return it == per_node_.end() ? nullptr : &it->second;
}

}  // namespace protean::core
