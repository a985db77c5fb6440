#include "attr/attribution.h"

#include <algorithm>

#include "common/check.h"
#include "obs/trace.h"
#include "workload/model.h"

namespace protean::attr {

namespace {
using workload::kIdentityEps;

constexpr const char* kCauseNames[kCauseCount] = {
    "formation",  "queue",        "cold_boot", "weight_load",
    "swap_stall", "deficiency",   "interference", "transfer",
    "retry",      "blackout",     "service",   "dropped",
};
}  // namespace

const char* cause_name(Cause cause) noexcept {
  const auto i = static_cast<std::size_t>(cause);
  return i < static_cast<std::size_t>(kCauseCount) ? kCauseNames[i] : "unknown";
}

AttributionEngine::AttributionEngine(const AttrConfig& config,
                                     obs::Tracer* tracer)
    : config_(config), tracer_(tracer) {
  sketches_.reserve(kComponentCount);
  for (int i = 0; i < kComponentCount; ++i) {
    sketches_.emplace_back(config_.sketch_alpha);
  }
}

void AttributionEngine::check_identity(const Decomposition& d) {
  if (d[Cause::kQueue] < -kIdentityEps) {
    ++identity_violations_;
    PROTEAN_DCHECK(d[Cause::kQueue] >= -kIdentityEps);
  }
}

void AttributionEngine::observe_batch(const workload::Batch& batch,
                                      const Decomposition& d,
                                      double lat_first, double lat_last) {
  check_identity(d);
  aggregate(d, batch.model, batch.node, batch.strict, batch.count, lat_first,
            lat_last, batch.slo, batch.id);
}

void AttributionEngine::observe_flow(const metrics::FlowRecord& flow,
                                     NodeId sink_node) {
  const double lat_first = flow.completed_at - flow.first_arrival;
  const double lat_last = flow.completed_at - flow.last_arrival;
  // Stage spans along the critical chain telescope: every stage's span
  // starts exactly at its critical predecessor's completion, so the summed
  // decomposition must equal the end-to-end latency from both sides.
  const double residual = lat_first - flow.chain.total();
  if (residual < -kIdentityEps || residual > kIdentityEps) {
    ++identity_violations_;
    PROTEAN_DCHECK(residual >= -kIdentityEps && residual <= kIdentityEps);
  }
  aggregate(flow.chain, flow.model, sink_node, flow.strict, flow.count,
            lat_first, lat_last, flow.slo, flow.id);
}

void AttributionEngine::observe_dropped(bool strict, int count) {
  if (!strict || count <= 0) return;
  const auto n = static_cast<std::uint64_t>(count);
  violations_ += n;
  cause_violations_[static_cast<std::size_t>(Cause::kDropped)] += n;
}

void AttributionEngine::aggregate(const Decomposition& d,
                                  const workload::ModelProfile* model,
                                  NodeId node, bool strict, int count,
                                  double lat_first, double lat_last,
                                  double slo, BatchId id) {
  ++batches_;
  requests_ += static_cast<std::uint64_t>(count);
  for (std::size_t i = 0; i < static_cast<std::size_t>(kComponentCount); ++i) {
    sketches_[i].add(d.parts[i]);
    cause_seconds_[i] += d.parts[i];
  }
  const int shard = shard_of_ ? shard_of_(node) : 0;
  GroupStats& group = groups_[{model, shard, strict}];
  group.requests += static_cast<std::uint64_t>(count);
  if (!strict) return;

  // Mirror of Collector::record_requests(): the same arrival ramp and the
  // same compliance verdict, so violation totals match exactly. Request i
  // arrived later than request 0 by (lat_first - lat_i); only its
  // formation wait shrinks by that much — every other component is shared
  // batch state.
  std::uint64_t violating = 0;
  Cause worst_cause = Cause::kQueue;
  for (int i = 0; i < count; ++i) {
    const double lat = workload::request_latency(lat_first, lat_last, i, count);
    if (workload::meets_slo(lat, slo)) continue;
    const double formation_i =
        d[Cause::kFormation] - (lat_first - lat);
    double best = formation_i;
    auto cause = Cause::kFormation;
    for (int c = 1; c < kOverheadCount; ++c) {
      const double v = d.parts[static_cast<std::size_t>(c)];
      if (v > best) {
        best = v;
        cause = static_cast<Cause>(c);
      }
    }
    if (violating == 0) worst_cause = cause;
    ++violating;
    ++violations_;
    ++cause_violations_[static_cast<std::size_t>(cause)];
    ++group.violations;
    ++group.causes[static_cast<std::size_t>(cause)];
  }
  if (violating > 0 && tracer_ != nullptr && tracer_->wants(obs::kSpans)) {
    tracer_->instant(obs::kSpans, "attr", 0,
                     {{"batch", static_cast<double>(id)},
                      {"cause", cause_name(worst_cause)},
                      {"overage_ms", (lat_first - slo) * 1000.0},
                      {"requests", static_cast<double>(violating)}});
  }
}

std::string AttributionEngine::dominant_cause() const {
  if (violations_ == 0) return "none";
  std::size_t best = 0;
  for (std::size_t c = 1; c < static_cast<std::size_t>(kCauseCount); ++c) {
    if (cause_violations_[c] > cause_violations_[best]) best = c;
  }
  return kCauseNames[best];
}

std::vector<AttributionEngine::GroupRow> AttributionEngine::group_rows()
    const {
  std::vector<GroupRow> rows;
  rows.reserve(groups_.size());
  for (const auto& [key, stats] : groups_) {
    GroupRow row;
    const auto* model = std::get<0>(key);
    row.model = model != nullptr ? model->name : "?";
    row.shard = std::get<1>(key);
    row.strict = std::get<2>(key);
    row.requests = stats.requests;
    row.violations = stats.violations;
    std::size_t best = 0;
    for (std::size_t c = 1; c < stats.causes.size(); ++c) {
      if (stats.causes[c] > stats.causes[best]) best = c;
    }
    row.dominant = static_cast<Cause>(best);
    rows.push_back(std::move(row));
  }
  // The map iterates in pointer order (nondeterministic across runs);
  // reports must not.
  std::sort(rows.begin(), rows.end(), [](const GroupRow& a, const GroupRow& b) {
    if (a.model != b.model) return a.model < b.model;
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.strict > b.strict;
  });
  return rows;
}

}  // namespace protean::attr
