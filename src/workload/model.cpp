#include "workload/model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/check.h"

namespace protean::workload {

const char* to_string(InterferenceClass c) noexcept {
  switch (c) {
    case InterferenceClass::kLI: return "LI";
    case InterferenceClass::kHI: return "HI";
    case InterferenceClass::kVHI: return "VHI";
  }
  return "?";
}

const char* to_string(Domain d) noexcept {
  switch (d) {
    case Domain::kVision: return "vision";
    case Domain::kLanguage: return "language";
    case Domain::kGenerative: return "generative";
  }
  return "?";
}

void ModelProfile::tabulate_rdf() noexcept {
  for (gpu::SliceProfile slice : gpu::kAllProfiles) {
    const double cf = gpu::compute_fraction(slice);
    rdf_[static_cast<std::size_t>(slice)] =
        std::pow(1.0 / cf, deficiency_alpha);
  }
}

double ModelProfile::sm_share_on(gpu::SliceProfile slice) const noexcept {
  return std::min(1.0, sm_req / gpu::compute_fraction(slice));
}

bool ModelProfile::fits(gpu::SliceProfile slice) const noexcept {
  return mem_gb <= gpu::memory_gb(slice) + 1e-9;
}

namespace {

ModelProfile make(std::string name, Domain domain, InterferenceClass iclass,
                  int batch, double solo_ms, MemGb mem, MemGb weight,
                  double fbr, double sm_req, double alpha) {
  ModelProfile m;
  m.name = std::move(name);
  m.domain = domain;
  m.iclass = iclass;
  m.batch_size = batch;
  m.solo_time_7g = milliseconds(solo_ms);
  m.mem_gb = mem;
  m.weight_gb = weight;
  m.fbr = fbr;
  m.sm_req = sm_req;
  m.deficiency_alpha = alpha;
  m.tabulate_rdf();
  return m;
}

}  // namespace

ModelCatalog::ModelCatalog() {
  using D = Domain;
  using C = InterferenceClass;
  // Vision, batch 128, ImageNet-1k. Solo latencies fall in the 50–200 ms
  // window the paper reports for its chosen batch sizes; memory footprints
  // span the stated ~2–14 GB range; FBRs follow the LI/HI split of Fig. 3.
  // The weight column (7th argument) is the parameter + persistent-buffer
  // footprint that stays on the device between batches when the model
  // cache keeps it warm; mem − weight is per-batch activation memory.
  models_ = {
      make("ResNet 50", D::kVision, C::kHI, 128, 195.0, 6.0, 3.0, 0.90, 1.00, 0.35),
      make("GoogleNet", D::kVision, C::kLI, 128, 80.0, 4.0, 1.5, 0.35, 0.75, 0.15),
      make("DenseNet 121", D::kVision, C::kHI, 128, 185.0, 7.0, 3.0, 0.92, 1.00, 0.40),
      make("DPN 92", D::kVision, C::kHI, 128, 205.0, 14.0, 6.0, 1.00, 1.00, 0.45),
      make("VGG 19", D::kVision, C::kHI, 128, 200.0, 10.0, 5.5, 0.98, 1.00, 0.50),
      make("ResNet 18", D::kVision, C::kLI, 128, 60.0, 3.5, 1.5, 0.40, 0.75, 0.20),
      make("MobileNet", D::kVision, C::kLI, 128, 50.0, 2.5, 1.0, 0.30, 0.60, 0.10),
      make("MobileNet V2", D::kVision, C::kLI, 128, 55.0, 2.5, 1.0, 0.28, 0.60, 0.10),
      make("SENet 18", D::kVision, C::kLI, 128, 65.0, 3.5, 1.5, 0.42, 0.75, 0.20),
      make("ShuffleNet V2", D::kVision, C::kLI, 128, 50.0, 2.0, 0.8, 0.25, 0.55, 0.05),
      make("EfficientNet-B0", D::kVision, C::kLI, 128, 70.0, 3.0, 1.2, 0.38, 0.70, 0.15),
      make("Simplified DLA", D::kVision, C::kLI, 128, 190.0, 4.0, 1.6, 0.45, 0.85, 0.20),
      // Language (sequence classification), batch 4, Large Movie Review.
      // VHI: FBRs are 59% higher on average than vision (Section 6.2);
      // kernels are small (low sm_req) so they pack under MPS, and the
      // contention they generate is bandwidth, not compute. ALBERT's alpha
      // is calibrated so RDF(3g) = (7/3)^0.903 ≈ 2.15 (Section 2.2).
      make("ALBERT", D::kLanguage, C::kVHI, 4, 200.0, 4.0, 2.0, 0.95, 0.35, 0.903),
      make("BERT", D::kLanguage, C::kVHI, 4, 180.0, 5.0, 2.5, 0.86, 0.38, 0.40),
      make("DeBERTa", D::kLanguage, C::kVHI, 4, 240.0, 6.5, 3.5, 1.00, 0.45, 0.45),
      make("DistilBERT", D::kLanguage, C::kVHI, 4, 110.0, 3.0, 1.5, 0.78, 0.30, 0.35),
      make("FlauBERT", D::kLanguage, C::kVHI, 4, 220.0, 5.5, 3.0, 0.92, 0.42, 0.42),
      make("Funnel-Transformer", D::kLanguage, C::kVHI, 4, 190.0, 5.0, 2.5, 0.85, 0.40, 0.40),
      make("RoBERTa", D::kLanguage, C::kVHI, 4, 185.0, 5.0, 2.5, 0.90, 0.40, 0.40),
      make("SqueezeBERT", D::kLanguage, C::kVHI, 4, 130.0, 3.5, 1.8, 0.80, 0.34, 0.36),
      // Modern generative LLMs: FBRs up to 42% above the other LLMs; a
      // single batch already saturates the memory bus (fbr > 1).
      make("GPT-1", D::kGenerative, C::kVHI, 4, 260.0, 6.0, 3.3, 1.25, 0.50, 0.40),
      make("GPT-2", D::kGenerative, C::kVHI, 4, 330.0, 8.0, 4.5, 1.35, 0.55, 0.45),
  };
}

const ModelCatalog& ModelCatalog::instance() {
  static const ModelCatalog catalog;
  return catalog;
}

const ModelProfile* ModelCatalog::find(const std::string& name) const noexcept {
  for (const auto& m : models_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

const ModelProfile& ModelCatalog::by_name(const std::string& name) const {
  const ModelProfile* m = find(name);
  if (m == nullptr) throw std::invalid_argument("unknown model: " + name);
  return *m;
}

std::vector<const ModelProfile*> ModelCatalog::by_domain(Domain domain) const {
  std::vector<const ModelProfile*> out;
  for (const auto& m : models_) {
    if (m.domain == domain) out.push_back(&m);
  }
  return out;
}

std::vector<const ModelProfile*> ModelCatalog::opposite_class_pool(
    const ModelProfile& strict_model) const {
  // BE requests rotate through vision models of the opposite interference
  // class (Section 5). For VHI strict models the pool is the other VHI
  // language models, mirroring Section 6.2's LLM experiments.
  std::vector<const ModelProfile*> out;
  if (strict_model.iclass == InterferenceClass::kVHI) {
    for (const auto& m : models_) {
      if (m.iclass == InterferenceClass::kVHI && m.name != strict_model.name &&
          m.domain == Domain::kLanguage) {
        out.push_back(&m);
      }
    }
    return out;
  }
  const InterferenceClass opposite =
      strict_model.iclass == InterferenceClass::kLI ? InterferenceClass::kHI
                                                    : InterferenceClass::kLI;
  for (const auto& m : models_) {
    if (m.domain == Domain::kVision && m.iclass == opposite) out.push_back(&m);
  }
  return out;
}

}  // namespace protean::workload
