#include "core/distributor.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "core/slowdown.h"
#include "gpu/mig.h"
#include "memcache/model_cache.h"

namespace protean::core {

namespace {

gpu::JobSpec probe_spec(const workload::Batch& batch, const gpu::Slice& slice) {
  return workload::job_spec_for(batch, slice.profile());
}

}  // namespace

std::vector<TaggedSlice> JobDistributor::compute_tags(
    std::span<gpu::Slice* const> slices, MemGb be_mem) {
  std::vector<gpu::Slice*> ascending(slices.begin(), slices.end());
  std::sort(ascending.begin(), ascending.end(), gpu::slice_order_ascending);
  std::vector<TaggedSlice> tagged;
  compute_tags_into(ascending, be_mem, tagged);
  return tagged;
}

void JobDistributor::compute_tags_into(const std::vector<gpu::Slice*>& slices,
                                       MemGb be_mem,
                                       std::vector<TaggedSlice>& tagged) {
  PROTEAN_DCHECK(std::is_sorted(slices.begin(), slices.end(),
                                gpu::slice_order_ascending));
  tagged.clear();
  for (gpu::Slice* s : slices) tagged.push_back(TaggedSlice{s, 0.0});
  // Algorithm 1 lines 2–8: fill tag values ascending until BE demand is
  // exhausted.
  for (TaggedSlice& ts : tagged) {
    if (be_mem <= 0.0) break;
    const MemGb avail = std::max(0.0, ts.slice->available_memory());
    if (avail <= 0.0) {
      ts.tag_value = 1.0;
      continue;
    }
    ts.tag_value = std::min(1.0, be_mem / avail);
    be_mem = std::max(0.0, be_mem - avail);
  }
}

gpu::Slice* JobDistributor::choose_strict_slice(
    const workload::Batch& batch, const std::vector<TaggedSlice>& tagged,
    double be_fbr_density, const memcache::ModelCache* cache,
    double* eta_out) {
  gpu::Slice* best = nullptr;
  double best_eta = std::numeric_limits<double>::infinity();
  // Two passes: slices not fully claimed by BE work first (Algorithm 1's
  // tag < 1 filter); if every admitting slice is BE-saturated — a BE
  // backlog larger than GPU memory — strict requests still take the
  // min-η slice. Reordering gives them priority, never starvation.
  for (const bool ignore_tags : {false, true}) {
    for (const TaggedSlice& ts : tagged) {
      gpu::Slice& slice = *ts.slice;
      if (!ignore_tags && ts.tag_value >= 1.0) continue;
      if (batch.model->mem_gb > slice.memory_capacity() + 1e-9) continue;
      if (!slice.can_admit(probe_spec(batch, slice))) continue;
      // Expected interference from BE work earmarked for this slice: the
      // tagged fraction of the slice's free memory times the queue's FBR
      // density (FBR per GB).
      const double tagged_fbr =
          ts.tag_value * std::max(0.0, slice.available_memory()) *
          be_fbr_density;
      double eta =
          slowdown_factor(*batch.model, slice.profile(), slice.fbr_sum(),
                          slice.sm_share_sum(), tagged_fbr);
      // Cache affinity: a slice already holding the weights avoids the
      // weight-load cold start, worth a discounted effective slowdown.
      if (cache != nullptr && cache->resident(slice.id(), batch.model)) {
        eta /= 1.0 + memcache::kAffinityWeight;
      }
      if (eta < best_eta) {
        best_eta = eta;
        best = &slice;
      }
    }
    if (best != nullptr) {
      if (eta_out != nullptr) *eta_out = best_eta;
      return best;
    }
  }
  return nullptr;
}

gpu::Slice* JobDistributor::choose_best_effort_slice(
    const workload::Batch& batch, std::span<gpu::Slice* const> ascending,
    bool protect_largest, const memcache::ModelCache* cache) {
  // First Fit over ascending sizes: the smallest slice that can take the
  // batch right now. While strict work is present the largest slice is
  // reserved for it: BE spills onto it only when no smaller slice could
  // *ever* host the batch (e.g. a 14 GB DPN 92 batch in a (4g,2g,1g)
  // geometry) — otherwise the batch waits, per Guideline 1.
  PROTEAN_DCHECK(std::is_sorted(ascending.begin(), ascending.end(),
                                gpu::slice_order_ascending));
  if (ascending.empty()) return nullptr;
  const gpu::Slice* largest = ascending.back();
  // Cache affinity: prefer a slice already holding the weights (same First
  // Fit rules), falling back to the plain scan when none qualifies.
  for (const bool affinity_pass : {true, false}) {
    if (affinity_pass && cache == nullptr) continue;
    bool fits_smaller = false;
    for (gpu::Slice* candidate : ascending) {
      gpu::Slice& slice = *candidate;
      if (batch.model->mem_gb > slice.memory_capacity() + 1e-9) continue;
      if (&slice != largest) fits_smaller = true;
      if (protect_largest && &slice == largest && fits_smaller &&
          ascending.size() > 1) {
        continue;
      }
      if (affinity_pass && !cache->resident(slice.id(), batch.model)) continue;
      if (slice.can_admit(probe_spec(batch, slice))) return &slice;
    }
  }
  return nullptr;
}

}  // namespace protean::core
