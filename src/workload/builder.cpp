#include "workload/builder.h"

#include <algorithm>
#include <stdexcept>

namespace protean::workload {

namespace {
[[noreturn]] void reject(const std::string& field, const std::string& why) {
  throw std::invalid_argument("ModelBuilder: " + field + " " + why);
}
}  // namespace

ModelBuilder::ModelBuilder(std::string name) {
  if (name.empty()) reject("name", "must be non-empty");
  profile_.name = std::move(name);
  profile_.domain = Domain::kVision;
  profile_.batch_size = 128;
  profile_.sm_req = 0.8;
}

ModelBuilder& ModelBuilder::domain(Domain domain) noexcept {
  profile_.domain = domain;
  return *this;
}

ModelBuilder& ModelBuilder::batch_size(int batch) noexcept {
  profile_.batch_size = batch;
  return *this;
}

ModelBuilder& ModelBuilder::solo_latency_ms(double ms) noexcept {
  profile_.solo_time_7g = milliseconds(ms);
  has_latency_ = true;
  return *this;
}

ModelBuilder& ModelBuilder::memory_gb(MemGb gb) noexcept {
  profile_.mem_gb = gb;
  has_memory_ = true;
  return *this;
}

ModelBuilder& ModelBuilder::weight_gb(MemGb gb) noexcept {
  explicit_weight_ = gb;
  return *this;
}

ModelBuilder& ModelBuilder::fbr(double value) noexcept {
  profile_.fbr = value;
  has_fbr_ = true;
  return *this;
}

ModelBuilder& ModelBuilder::sm_requirement(double sm_req) noexcept {
  explicit_sm_ = sm_req;
  return *this;
}

ModelBuilder& ModelBuilder::deficiency_alpha(double alpha) noexcept {
  explicit_alpha_ = alpha;
  return *this;
}

ModelBuilder& ModelBuilder::interference_class(
    InterferenceClass iclass) noexcept {
  explicit_class_ = iclass;
  return *this;
}

InterferenceClass ModelBuilder::classify_fbr(double fbr) noexcept {
  if (fbr < 0.55) return InterferenceClass::kLI;
  if (fbr < 1.0) return InterferenceClass::kHI;
  return InterferenceClass::kVHI;
}

ModelProfile ModelBuilder::build() const {
  if (!has_latency_) reject("solo_latency_ms", "is required");
  if (!has_memory_) reject("memory_gb", "is required");
  if (!has_fbr_) reject("fbr", "is required");

  ModelProfile profile = profile_;
  if (profile.batch_size <= 0) reject("batch_size", "must be positive");
  if (profile.solo_time_7g <= 0.0) reject("solo_latency_ms", "must be positive");
  if (profile.solo_time_7g > 10.0) {
    reject("solo_latency_ms", "exceeds 10 s — not a serverless batch");
  }
  if (profile.mem_gb <= 0.0) reject("memory_gb", "must be positive");
  if (profile.mem_gb > 40.0) reject("memory_gb", "exceeds a 40 GB A100");
  profile.weight_gb = explicit_weight_.value_or(0.45 * profile.mem_gb);
  if (profile.weight_gb < 0.0) reject("weight_gb", "must be non-negative");
  if (profile.weight_gb > profile.mem_gb) {
    reject("weight_gb", "exceeds the total memory footprint");
  }
  if (profile.fbr <= 0.0 || profile.fbr > 1.5) {
    reject("fbr", "must be in (0, 1.5]");
  }

  profile.iclass = explicit_class_.value_or(classify_fbr(profile.fbr));

  if (explicit_sm_) {
    profile.sm_req = *explicit_sm_;
  } else {
    // Heavier (higher-FBR) kernels tend to occupy more SMs.
    profile.sm_req = std::clamp(0.4 + 0.5 * profile.fbr, 0.2, 1.0);
  }
  if (profile.sm_req <= 0.0 || profile.sm_req > 1.0) {
    reject("sm_requirement", "must be in (0, 1]");
  }

  if (explicit_alpha_) {
    profile.deficiency_alpha = *explicit_alpha_;
  } else {
    switch (profile.iclass) {
      case InterferenceClass::kLI: profile.deficiency_alpha = 0.15; break;
      case InterferenceClass::kHI: profile.deficiency_alpha = 0.40; break;
      case InterferenceClass::kVHI: profile.deficiency_alpha = 0.60; break;
    }
  }
  if (profile.deficiency_alpha < 0.0 || profile.deficiency_alpha > 1.0) {
    reject("deficiency_alpha", "must be in [0, 1]");
  }
  profile.tabulate_rdf();
  return profile;
}

}  // namespace protean::workload
