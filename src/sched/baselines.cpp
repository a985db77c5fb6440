#include "sched/baselines.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace protean::sched {

namespace {

/// GPUlet's SM caps per Section 6.2: strict requests get a ~60–65% upper
/// bound, BE requests the remainder.
constexpr double kGpuletStrictSmCap = 0.625;
constexpr double kGpuletBeSmCap = 0.375;

gpu::JobSpec probe(const workload::Batch& batch, const gpu::Slice& slice) {
  return workload::job_spec_for(batch, slice.profile());
}

int slice_units(const gpu::Slice& slice) {
  return gpu::traits(slice.profile()).compute_units;
}

/// The single slice of a whole-GPU geometry, or nullptr while reconfiguring.
gpu::Slice* whole_gpu_slice(cluster::WorkerNode& node) {
  const auto slices = node.gpu().slices();
  return slices.empty() ? nullptr : slices.front();
}

/// Whole-GPU placement, shared by Molecule (beta) and INFless/Llama: the
/// batch takes the GPU's single slice if the slice admits it. Otherwise it
/// queues: Molecule time-shares behind the running batch, and INFless
/// consolidates everything, so only memory limits admission. `label` names
/// the policy in placement traces.
gpu::Slice* place_whole_gpu(const workload::Batch& batch,
                            cluster::WorkerNode& node, const char* label) {
  gpu::Slice* slice = whole_gpu_slice(node);
  const std::size_t candidates = slice != nullptr ? 1 : 0;
  if (slice != nullptr && !slice->can_admit(probe(batch, *slice))) {
    slice = nullptr;
  }
  cluster::trace_placement(node, batch, label, candidates, slice, 0.0);
  return slice;
}

}  // namespace

gpu::Slice* MoleculeBetaScheduler::place(const workload::Batch& batch,
                                         cluster::WorkerNode& node) {
  return place_whole_gpu(batch, node, "molecule-beta");
}

gpu::Slice* InflessLlamaScheduler::place(const workload::Batch& batch,
                                         cluster::WorkerNode& node) {
  return place_whole_gpu(batch, node, "infless-llama");
}

gpu::Slice* NaiveSlicingScheduler::place(const workload::Batch& batch,
                                         cluster::WorkerNode& node) {
  // Load balance by slice memory: route to the admitting slice with the
  // most free memory, with no strict/BE distinction. With the model cache
  // enabled, resident weights add a free-memory-equivalent bonus so the
  // balancer leans toward slices that skip the weight load.
  const memcache::ModelCache* cache = node.cache();
  gpu::Slice* best = nullptr;
  double best_score = -std::numeric_limits<double>::infinity();
  const auto slices = node.gpu().slices();
  for (gpu::Slice* slice : slices) {
    if (!batch.model->fits(slice->profile())) continue;
    if (!slice->can_admit(probe(batch, *slice))) continue;
    double score = slice->available_memory();
    if (cache != nullptr && cache->resident(slice->id(), batch.model)) {
      score += memcache::kAffinityWeight * batch.model->weight_gb;
    }
    if (best == nullptr || score > best_score) {
      best = slice;
      best_score = score;
    }
  }
  cluster::trace_placement(node, batch, "naive-slicing", slices.size(), best,
                           best != nullptr ? best_score : 0.0);
  return best;
}

gpu::Slice* MigOnlyScheduler::place(const workload::Batch& batch,
                                    cluster::WorkerNode& node) {
  // Requests are spread equally across slices; time sharing means a slice
  // only admits when idle. Prefer the largest idle slice that fits.
  gpu::Slice* best = nullptr;
  for (gpu::Slice* slice : node.gpu().slices()) {
    if (!batch.model->fits(slice->profile())) continue;
    if (!slice->can_admit(probe(batch, *slice))) continue;
    if (best == nullptr || slice_units(*slice) > slice_units(*best)) {
      best = slice;
    }
  }
  cluster::trace_placement(node, batch, "mig-only", node.gpu().slices().size(),
                           best, 0.0);
  return best;
}

gpu::Slice* MpsMigScheduler::place(const workload::Batch& batch,
                                   cluster::WorkerNode& node) {
  // Even spread: the admitting slice with the fewest resident jobs
  // (ties broken toward more free memory, then toward cached weights).
  const memcache::ModelCache* cache = node.cache();
  gpu::Slice* best = nullptr;
  for (gpu::Slice* slice : node.gpu().slices()) {
    if (!batch.model->fits(slice->profile())) continue;
    if (!slice->can_admit(probe(batch, *slice))) continue;
    if (best == nullptr || slice->running_jobs() < best->running_jobs() ||
        (slice->running_jobs() == best->running_jobs() &&
         slice->available_memory() > best->available_memory()) ||
        (cache != nullptr && slice->running_jobs() == best->running_jobs() &&
         slice->available_memory() == best->available_memory() &&
         cache->resident(slice->id(), batch.model) &&
         !cache->resident(best->id(), batch.model))) {
      best = slice;
    }
  }
  cluster::trace_placement(node, batch, "mps-mig", node.gpu().slices().size(),
                           best, 0.0);
  return best;
}

gpu::Slice* SmartMpsMigScheduler::place(const workload::Batch& batch,
                                        cluster::WorkerNode& node) {
  // Strict requests get the largest slice; BE requests are kept off it
  // whenever any other slice can take them (Section 2.2 straw man).
  const auto live = node.gpu().slices();
  if (live.empty()) {
    cluster::trace_placement(node, batch, "smart-mps-mig", 0, nullptr, 0.0);
    return nullptr;
  }
  std::vector<gpu::Slice*> slices(live.begin(), live.end());
  std::sort(slices.begin(), slices.end(),
            [](const gpu::Slice* a, const gpu::Slice* b) {
              return gpu::traits(a->profile()).compute_units >
                     gpu::traits(b->profile()).compute_units;
            });
  gpu::Slice* chosen = nullptr;
  if (batch.strict) {
    for (gpu::Slice* slice : slices) {  // largest first
      if (batch.model->fits(slice->profile()) &&
          slice->can_admit(probe(batch, *slice))) {
        chosen = slice;
        break;
      }
    }
  } else {
    // BE: smallest-first, excluding the largest slice unless it is the only
    // option with room.
    for (auto it = slices.rbegin(); it != slices.rend(); ++it) {
      gpu::Slice* slice = *it;
      if (slice == slices.front() && slices.size() > 1) continue;
      if (batch.model->fits(slice->profile()) &&
          slice->can_admit(probe(batch, *slice))) {
        chosen = slice;
        break;
      }
    }
  }
  cluster::trace_placement(node, batch, "smart-mps-mig", slices.size(), chosen,
                           0.0);
  return chosen;
}

gpu::Slice* GpuletScheduler::place(const workload::Batch& batch,
                                   cluster::WorkerNode& node) {
  gpu::Slice* slice = whole_gpu_slice(node);
  if (slice == nullptr) {
    cluster::trace_placement(node, batch, "gpulet", 0, nullptr, 0.0);
    return nullptr;
  }
  // GPUlet carves the GPU into one strict and one BE SM partition; each
  // partition serves one batch at a time (spatio-temporal sharing).
  const std::size_t strict_resident = slice->strict_jobs();
  const std::size_t be_resident = slice->running_jobs() - strict_resident;
  gpu::Slice* chosen = slice;
  if ((batch.strict && strict_resident > 0) ||
      (!batch.strict && be_resident > 0)) {
    chosen = nullptr;
  } else {
    const gpu::JobSpec spec = make_job(batch, *slice, 0);
    if (!slice->can_admit(spec)) chosen = nullptr;
  }
  cluster::trace_placement(node, batch, "gpulet", 1, chosen, 0.0);
  return chosen;
}

gpu::JobSpec GpuletScheduler::make_job(const workload::Batch& batch,
                                       const gpu::Slice& slice,
                                       JobId job_id) const {
  gpu::JobSpec spec = cluster::Scheduler::make_job(batch, slice, job_id);
  const double cap = batch.strict ? kGpuletStrictSmCap : kGpuletBeSmCap;
  // The batch's effective SM requirement (fill-scaled) against the cap:
  // capping below the need stretches the solo time and shrinks the job's
  // bandwidth draw and SM occupancy proportionally (FBR = bw×sm).
  const double sm_need = batch.model->sm_req * batch.work_fraction();
  const double sm_used = std::min(sm_need, cap);
  spec.solo_time *= std::max(1.0, sm_need / cap);
  // Capping SMs thins the *average* bandwidth draw less than linearly: the
  // kernel's memory phases still burst at full rate (this is exactly why
  // the paper finds cache/bandwidth interference survives SM partitioning).
  spec.fbr *= std::sqrt(sm_used / std::max(sm_need, 1e-9));
  spec.sm_share =
      std::min(1.0, sm_used / gpu::compute_fraction(slice.profile()));
  return spec;
}

}  // namespace protean::sched
