// Job Distribution logic ⑤ — Algorithm 1 of the paper.
//
// Slices (ascending by size) are tagged with the fraction of their memory
// that queued best-effort work will occupy. BE batches are packed first-fit
// onto the fewest, smallest slices (Guideline 1); strict batches go to the
// not-fully-BE slice minimizing Eq. 2's slowdown factor η (Guideline 2).
#pragma once

#include <span>
#include <vector>

#include "gpu/engine.h"
#include "workload/batch.h"

namespace protean::memcache {
class ModelCache;
}

namespace protean::core {

/// One scheduling round's view of a slice plus its Algorithm 1 tag value
/// (fraction of available memory that queued BE work would occupy).
struct TaggedSlice {
  gpu::Slice* slice = nullptr;
  double tag_value = 0.0;
};

class JobDistributor {
 public:
  /// Algorithm 1 lines 1–8: walks slices in ascending size order, spreading
  /// `be_mem` GB of queued best-effort demand across them as tag values.
  static std::vector<TaggedSlice> compute_tags(
      std::span<gpu::Slice* const> slices, MemGb be_mem);

  /// Same tagging pass over slices *already* in canonical ascending order
  /// (gpu::slice_order_ascending), written into `tagged` (its old contents
  /// are replaced). Hot-path variant consumed with the node-side
  /// sorted-slice cache and a caller-owned buffer, so placement skips the
  /// per-call sort and allocation.
  static void compute_tags_into(const std::vector<gpu::Slice*>& ascending,
                                MemGb be_mem,
                                std::vector<TaggedSlice>& tagged);

  /// choose_strict_slice ⑦: among slices with tag_value < 1 that can admit
  /// the batch, pick the one with the least η. The tag contributes expected
  /// BE interference proportional to the tagged memory (`be_fbr_density` =
  /// FBR per GB of queued BE work). When a model cache is supplied, slices
  /// holding the batch's weights get their η discounted by
  /// 1/(1 + memcache::kAffinityWeight) — the cache-affinity term. Returns
  /// nullptr if nothing admits. When `eta_out` is non-null it receives the
  /// winning slice's η (untouched when nothing admits) — the score reported
  /// in scheduler-decision trace records.
  static gpu::Slice* choose_strict_slice(
      const workload::Batch& batch, const std::vector<TaggedSlice>& tagged,
      double be_fbr_density, const memcache::ModelCache* cache = nullptr,
      double* eta_out = nullptr);

  /// choose_best_effort_slice ⑧: First-Fit bin packing over `ascending`,
  /// the slices in canonical ascending order (gpu::slice_order_ascending);
  /// it reads no tag values. When `protect_largest` is set (strict work is
  /// present), the largest slice only takes BE batches that no smaller
  /// slice could ever host. Returns nullptr if nothing admits (the batch
  /// waits). With no strict demand, BE work may use the whole GPU. With a
  /// model cache, a first pass prefers slices where the batch's weights are
  /// already resident.
  static gpu::Slice* choose_best_effort_slice(
      const workload::Batch& batch, std::span<gpu::Slice* const> ascending,
      bool protect_largest = true,
      const memcache::ModelCache* cache = nullptr);
};

}  // namespace protean::core
