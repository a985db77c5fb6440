// ML inference model profiles.
//
// The paper evaluates 22 models profiled on real A100s. We substitute a
// calibrated catalog: each model carries the statistics Eq. 1/2 consume —
// solo batch latency on 7g, Fractional Bandwidth Requirement (FBR = bw×sm),
// per-batch GPU memory footprint, and a resource-deficiency sensitivity
// exponent from which per-slice RDFs are derived:
//
//   RDF(slice) = (1 / compute_fraction(slice)) ^ deficiency_alpha
//
// deficiency_alpha is calibrated to the paper's reported anchors (e.g.
// ALBERT slows 2.15× on a 3g slice; ShuffleNet V2 suffers <2% deficiency).
// The paper profiles the RDFs offline, so each profile carries them as a
// five-entry table, filled once when the catalog builds the profile (see
// tabulate_rdf).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "gpu/mig.h"

namespace protean::workload {

/// Interference class per Fig. 3: Low/High interference vision models and
/// Very High Interference language models (Section 6.2).
enum class InterferenceClass : std::uint8_t { kLI, kHI, kVHI };

enum class Domain : std::uint8_t { kVision, kLanguage, kGenerative };

const char* to_string(InterferenceClass c) noexcept;
const char* to_string(Domain d) noexcept;

/// Profiled characteristics of one model (one row of the catalog).
struct ModelProfile {
  std::string name;
  Domain domain = Domain::kVision;
  InterferenceClass iclass = InterferenceClass::kLI;
  int batch_size = 128;

  /// Solo execution latency of one batch on a full 7g GPU, seconds.
  Duration solo_time_7g = 0.0;

  /// Per-batch GPU memory footprint (weights + activations), GB.
  MemGb mem_gb = 0.0;

  /// Model weight (parameter + persistent buffer) footprint, GB. The part
  /// of mem_gb that survives between batches when weights stay cached on
  /// the device; the remainder is per-batch activation memory.
  MemGb weight_gb = 0.0;

  /// Fractional Bandwidth Requirement of one batch job (Eq. 1's bw×sm).
  double fbr = 0.0;

  /// Fraction of the GPU's SMs the batch kernel can actually occupy.
  /// Used by GPUlet-style SM capping.
  double sm_req = 1.0;

  /// Resource-deficiency sensitivity exponent (see file comment).
  double deficiency_alpha = 0.0;

  /// Resource Deficiency Factor on a slice: Solo_slice / Solo_7g (>= 1),
  /// read from the table tabulate_rdf() filled.
  double rdf(gpu::SliceProfile slice) const noexcept {
    return rdf_[static_cast<std::size_t>(slice)];
  }

  /// Solo batch latency on the given slice: solo_time_7g × RDF.
  Duration solo_time_on(gpu::SliceProfile slice) const noexcept {
    return solo_time_7g * rdf(slice);
  }

  /// Fills the RDF table from deficiency_alpha, one entry per slice
  /// profile. Call it again after changing deficiency_alpha.
  void tabulate_rdf() noexcept;

  /// Fraction of the slice's SMs one batch kernel occupies under MPS:
  /// min(sm_req / compute_fraction, 1).
  double sm_share_on(gpu::SliceProfile slice) const noexcept;

  /// True if one batch fits in the slice's memory at all.
  bool fits(gpu::SliceProfile slice) const noexcept;

  /// Paper's SLO for strict requests: multiplier × solo time on 7g
  /// (default multiplier 3, Section 5).
  Duration slo_deadline(double multiplier = 3.0) const noexcept {
    return multiplier * solo_time_7g;
  }

 private:
  /// RDF per gpu::SliceProfile; all 1 for the default alpha of 0.
  std::array<double, gpu::kAllProfiles.size()> rdf_ = {1.0, 1.0, 1.0, 1.0,
                                                       1.0};
};

/// The 22-model catalog. Immutable singleton.
class ModelCatalog {
 public:
  static const ModelCatalog& instance();

  const ModelProfile& by_name(const std::string& name) const;
  const ModelProfile* find(const std::string& name) const noexcept;
  const std::vector<ModelProfile>& all() const noexcept { return models_; }

  std::vector<const ModelProfile*> by_domain(Domain domain) const;
  /// Vision models of the opposite interference class (used when rotating
  /// the BE model against a fixed strict model, Section 5).
  std::vector<const ModelProfile*> opposite_class_pool(
      const ModelProfile& strict_model) const;

  std::size_t size() const noexcept { return models_.size(); }

 private:
  ModelCatalog();
  std::vector<ModelProfile> models_;
};

}  // namespace protean::workload
