#include "core/reconfig.h"

#include <algorithm>

#include "common/check.h"

namespace protean::core {

namespace {
using gpu::Geometry;
using gpu::SliceProfile;

/// One of Algorithm 2's small slice sets, and the geometry it yields with
/// the 4g for strict requests appended (lines 22-23).
struct SmallSliceSet {
  MemGb memory;   ///< the set's total memory
  MemGb largest;  ///< its largest slice's memory
  bool has_2g;    ///< its deficiency is the BE model's 2g RDF (else 3g's)
  const Geometry& with_4g;
};
}  // namespace

Reconfigurator::Reconfigurator(const ReconfigConfig& config)
    : config_(config), ewma_(config.ewma_alpha) {
  PROTEAN_CHECK_MSG(config_.wait_limit >= 0, "negative wait limit");
  PROTEAN_CHECK_MSG(config_.t_low < config_.t_high, "thresholds inverted");
}

const Geometry& Reconfigurator::choose_geometry(
    MemGb pred_be_mem, const QueueInfo& info, const ReconfigConfig& config) {
  // Algorithm 2 line 6: small slice sets considered in ascending memory.
  static const SmallSliceSet kSmallSliceSets[] = {
      {gpu::memory_gb(SliceProfile::k1g) + gpu::memory_gb(SliceProfile::k2g),
       gpu::memory_gb(SliceProfile::k2g), true, Geometry::g4_2_1()},  // 15 GB
      {gpu::memory_gb(SliceProfile::k3g), gpu::memory_gb(SliceProfile::k3g),
       false, Geometry::g4_3()},  // 20 GB
  };

  const SmallSliceSet* chosen = nullptr;
  double chosen_rdf = 1.0;
  for (const SmallSliceSet& slice_set : kSmallSliceSets) {  // line 10
    if (slice_set.memory < pred_be_mem) continue;  // line 11 (c)
    // One slice of the set must hold a single BE batch at all; a 14 GB
    // DPN 92 batch disqualifies (1g,2g) outright.
    if (slice_set.largest + 1e-9 < info.be_batch_mem) continue;
    chosen = &slice_set;
    chosen_rdf = slice_set.has_2g ? info.be_rdf_2g : info.be_rdf_3g;
    break;
  }
  if (chosen == nullptr) {
    // line 19-20 (found == False): BE footprint exceeds every small set.
    return Geometry::g4_3();
  }
  // Steps d/e: potential occupancy of the chosen set against thresholds.
  // The occupancy is deficiency-weighted: BE batches that run RDF× slower
  // on the small slices hold their memory RDF× longer (profiling input,
  // per the paper's threshold calculation).
  const double occupancy =
      pred_be_mem * std::max(1.0, chosen_rdf) / chosen->memory;
  if (occupancy < config.t_low || occupancy > config.t_high) {  // line 19 (f)
    return Geometry::g4_3();
  }
  return chosen->with_4g;  // lines 22-23: the set plus the 4g
}

Reconfigurator::Decision Reconfigurator::evaluate(const QueueInfo& info,
                                                  const Geometry& current) {
  // Line 8 (a): predict the upcoming BE demand.
  ewma_.observe(info.be_mem_demand);
  const MemGb pred =
      config_.oracle ? info.be_mem_demand : ewma_.value();  // line 9 (b)

  Decision decision{choose_geometry(pred, info, config_)};

  if (decision.target == current) {  // line 29-30
    wait_ctr_ = 0;
    decision.reconfigure = false;
    return decision;
  }
  // Lines 24–28: require the mismatch to persist before paying downtime.
  if (config_.oracle || wait_ctr_ >= config_.wait_limit) {  // line 25 (g)
    decision.reconfigure = true;
    wait_ctr_ = 0;
  } else {
    ++wait_ctr_;
    decision.reconfigure = false;
  }
  return decision;
}

}  // namespace protean::core
