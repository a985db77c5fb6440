#include "workflow/spec.h"

#include <algorithm>

#include "common/check.h"
#include "gpu/mig.h"

namespace protean::workflow {

const char* to_string(DagShape shape) noexcept {
  switch (shape) {
    case DagShape::kChain:
      return "chain";
    case DagShape::kFanout:
      return "fanout";
    case DagShape::kDiamond:
      return "diamond";
    case DagShape::kShared:
      return "shared";
  }
  return "?";
}

std::optional<DagShape> parse_shape(std::string_view name) noexcept {
  if (name == "chain") return DagShape::kChain;
  if (name == "fanout") return DagShape::kFanout;
  if (name == "diamond") return DagShape::kDiamond;
  if (name == "shared") return DagShape::kShared;
  return std::nullopt;
}

namespace {

// Stage model rotation: light LI vision models so multi-stage flows keep
// end-to-end service times in the same regime as the paper's single-model
// strict streams. Stage i of any shape uses kStageModels[i % 5].
constexpr const char* kStageModels[] = {
    "MobileNet", "ResNet 18", "GoogleNet", "ShuffleNet V2", "EfficientNet-B0",
};

const workload::ModelProfile* stage_model(int index) {
  constexpr int kCount =
      static_cast<int>(sizeof(kStageModels) / sizeof(kStageModels[0]));
  return &workload::ModelCatalog::instance().by_name(
      kStageModels[index % kCount]);
}

}  // namespace

WorkflowSpec WorkflowSpec::build(const WorkflowConfig& config) {
  WorkflowSpec spec;
  spec.config_ = config;
  const double mb = config.transfer_mb;
  auto add = [&spec](int index, std::vector<Edge> inputs) {
    StageSpec stage;
    stage.name = "s" + std::to_string(index);
    stage.model = stage_model(index);
    stage.inputs = std::move(inputs);
    spec.stages_.push_back(std::move(stage));
  };
  switch (config.shape) {
    case DagShape::kChain: {
      const int n = std::clamp(config.chain_stages, 2, 8);
      add(0, {});
      for (int i = 1; i < n; ++i) add(i, {{i - 1, mb}});
      break;
    }
    case DagShape::kFanout: {
      const int width = std::clamp(config.fanout_width, 2, 6);
      add(0, {});
      for (int i = 1; i <= width; ++i) add(i, {{0, mb}});
      break;
    }
    case DagShape::kDiamond:
      add(0, {});
      add(1, {{0, mb}});
      add(2, {{0, mb}});
      add(3, {{1, mb}, {2, mb}});
      break;
    case DagShape::kShared:
      // One shared upstream encoder (s0) feeding two tenant branches:
      // s0 → s1 → s2 (tenant A) and s0 → s3 → s4 (tenant B).
      add(0, {});
      add(1, {{0, mb}});
      add(2, {{1, mb}});
      add(3, {{0, mb}});
      add(4, {{3, mb}});
      break;
  }
  spec.finalize();
  return spec;
}

void WorkflowSpec::finalize() {
  const std::size_t n = stages_.size();
  succs_.assign(n, {});
  for (std::size_t i = 0; i < n; ++i) {
    for (const Edge& edge : stages_[i].inputs) {
      // Topological order: every edge points strictly backward.
      PROTEAN_CHECK(edge.pred >= 0 && static_cast<std::size_t>(edge.pred) < i);
      succs_[static_cast<std::size_t>(edge.pred)].push_back(
          static_cast<int>(i));
    }
  }
  sinks_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (succs_[i].empty()) sinks_.push_back(static_cast<int>(i));
  }
  PROTEAN_CHECK(!sinks_.empty());

  // Forward DP for the critical path, both unweighted (solo seconds → SLO
  // base) and RDF-weighted at the reference 3g slice (budget shares).
  std::vector<Duration> solo_cp(n, 0.0);
  std::vector<double> weight(n, 0.0), weighted_cp(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const workload::ModelProfile& model = *stages_[i].model;
    weight[i] = model.solo_time_on(gpu::SliceProfile::k3g);
    Duration solo_in = 0.0;
    double weighted_in = 0.0;
    for (const Edge& edge : stages_[i].inputs) {
      const auto pred = static_cast<std::size_t>(edge.pred);
      solo_in = std::max(solo_in, solo_cp[pred]);
      weighted_in = std::max(weighted_in, weighted_cp[pred]);
    }
    solo_cp[i] = solo_in + model.solo_time_7g;
    weighted_cp[i] = weighted_in + weight[i];
  }
  critical_path_ = 0.0;
  double weighted_total = 0.0;
  for (int sink : sinks_) {
    const auto s = static_cast<std::size_t>(sink);
    critical_path_ = std::max(critical_path_, solo_cp[s]);
    weighted_total = std::max(weighted_total, weighted_cp[s]);
  }
  budget_fraction_.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    budget_fraction_[i] = weight[i] / weighted_total;
  }
}

Duration WorkflowSpec::hop_seconds(double mb) const noexcept {
  const double bw = config_.bw_gbps > 0.0 ? config_.bw_gbps : 1.0;
  return (mb / 1024.0) / bw + config_.hop_latency;
}

}  // namespace protean::workflow
