#include "autoscale/controller.h"

#include <algorithm>

#include "cluster/cluster.h"
#include "telemetry/pipeline.h"
#include "trace/trace.h"
#include "workload/model.h"

namespace protean::autoscale {

/// The rate forecaster's level smoothing factor; its seasonal term spans
/// one compressed "day" of the trace.
constexpr double kEwmaAlpha = 0.3;
constexpr Duration kSeasonPeriod = trace::kDiurnalPeriod;

AutoscaleController::AutoscaleController(
    sim::Simulator& simulator, cluster::Cluster& cluster,
    telemetry::TelemetryPipeline& pipeline, const AutoscaleConfig& config,
    const workload::ModelProfile* strict_model)
    : sim_(simulator),
      cluster_(cluster),
      pipeline_(pipeline),
      config_(config),
      strict_model_(strict_model),
      policy_(make_policy(config.policy)),
      forecaster_(kEwmaAlpha, kSeasonPeriod, config.tick),
      gate_(config.settle_ticks, config.max_step_up, config.max_step_down),
      min_nodes_(config.resolve_min(cluster.config().node_count)),
      max_nodes_(std::min<std::uint32_t>(
          config.resolve_max(cluster.config().node_count),
          static_cast<std::uint32_t>(cluster.node_count()))) {
  // Smallest slices first; promote walks right, demote walks left.
  ladder_ = {gpu::Geometry::g4_2_1(), gpu::Geometry::g3_3(),
             gpu::Geometry::g4_3(), gpu::Geometry::full()};
  stats_.low_nodes = cluster.config().node_count;
  pipeline_.set_scrape_listener(
      [this](SimTime now, double attainment, std::uint64_t total) {
        on_scrape(now, attainment, total);
      });
}

std::uint32_t AutoscaleController::committed_nodes() const {
  std::uint32_t committed = 0;
  const spot::Market& market = cluster_.market();
  for (NodeId id = 0; id < cluster_.node_count(); ++id) {
    if (decommissioning_.count(id) != 0) continue;
    if (market.node_up(id) || market.node_acquiring(id)) ++committed;
  }
  return committed;
}

void AutoscaleController::drain_decommissions() {
  for (auto it = decommissioning_.begin(); it != decommissioning_.end();) {
    const NodeId id = *it;
    spot::Market& market = cluster_.market();
    if (!market.node_up(id)) {
      // The market took the VM first (spot revocation); nothing to release.
      it = decommissioning_.erase(it);
      continue;
    }
    cluster::WorkerNode& node = cluster_.node(id);
    if (node.running() == 0 && node.queued() == 0) {
      if (market.release(id)) ++stats_.releases;
      it = decommissioning_.erase(it);
      continue;
    }
    ++it;
  }
}

Signals AutoscaleController::gather(SimTime now, double attainment_pct,
                                    std::uint64_t strict_total) {
  Signals s;
  s.now = now;
  s.window_attainment_pct = attainment_pct;
  s.window_strict_total = strict_total;
  const telemetry::BurnRateMonitor& monitor = pipeline_.monitor();
  s.fast_burn = monitor.fast_burn();
  s.slow_burn = monitor.slow_burn();
  s.alert_firing = monitor.firing();

  const Duration dt = now - last_tick_at_;
  const std::uint64_t seen = cluster_.gateway_requests_seen();
  double busy = 0.0;
  for (NodeId id = 0; id < cluster_.node_count(); ++id) {
    busy += cluster_.node(id).gpu_busy_seconds();
  }
  s.committed_nodes = committed_nodes();
  if (dt > 1e-9) {
    s.arrival_rps =
        static_cast<double>(seen - last_requests_seen_) / dt;
    const double active = std::max<double>(1.0, s.committed_nodes);
    s.window_util_pct =
        100.0 * std::max(0.0, busy - last_busy_seconds_) / (dt * active);
  }
  last_requests_seen_ = seen;
  last_busy_seconds_ = busy;
  last_tick_at_ = now;

  forecaster_.observe(now, s.arrival_rps);
  s.forecast_rps = forecaster_.forecast(now);
  s.backlog = cluster_.backlog();
  s.shards = static_cast<std::uint32_t>(cluster_.shard_count());
  s.hot_shard_skew = cluster_.shard_load_skew();
  s.min_nodes = min_nodes_;
  s.max_nodes = max_nodes_;
  return s;
}

void AutoscaleController::scale_to(std::uint32_t target) {
  spot::Market& market = cluster_.market();
  std::uint32_t committed = committed_nodes();
  // Scale up: cancelled decommissions first (that capacity is still warm
  // and costs nothing to keep), then market acquisitions on parked slots,
  // lowest id first for determinism.
  while (committed < target) {
    if (!decommissioning_.empty()) {
      const NodeId id = *decommissioning_.begin();
      decommissioning_.erase(decommissioning_.begin());
      cluster_.cancel_decommission(id);
      ++stats_.acquisitions;
      ++committed;
      continue;
    }
    bool issued = false;
    for (NodeId id = 0; id < cluster_.node_count(); ++id) {
      if (market.node_up(id) || market.node_acquiring(id)) continue;
      if (market.acquire(id, config_.prefer_spot)) {
        ++stats_.acquisitions;
        ++committed;
        issued = true;
        break;
      }
    }
    if (!issued) break;  // no parked slot left
  }
  // Scale down: drain the highest-id up nodes so the base fleet keeps its
  // identity; nodes already draining (market eviction) are skipped.
  while (committed > target) {
    bool issued = false;
    for (NodeId id = static_cast<NodeId>(cluster_.node_count()); id-- > 0;) {
      if (decommissioning_.count(id) != 0) continue;
      if (!market.node_up(id) || market.node_draining(id)) continue;
      if (!cluster_.node(id).up()) continue;
      cluster_.begin_decommission(id);
      decommissioning_.insert(id);
      --committed;
      issued = true;
      break;
    }
    if (!issued) break;
  }
}

void AutoscaleController::apply_vertical(VerticalStance stance) {
  if (!config_.vertical || stance == VerticalStance::kHold) return;
  int budget = 1;  // MIG nodes that may start a geometry change this tick
  for (NodeId id = 0; id < cluster_.node_count() && budget > 0; ++id) {
    if (decommissioning_.count(id) != 0) continue;
    cluster::WorkerNode& node = cluster_.node(id);
    if (!node.accepting() || node.gpu().reconfiguring()) continue;
    const gpu::Geometry current = node.gpu().geometry();
    std::size_t rung = ladder_.size();
    for (std::size_t i = 0; i < ladder_.size(); ++i) {
      if (ladder_[i] == current) {
        rung = i;
        break;
      }
    }
    if (rung >= ladder_.size()) continue;  // scheduler chose an off-ladder layout
    const bool promote = stance == VerticalStance::kPromote;
    if (promote && rung + 1 >= ladder_.size()) continue;
    if (!promote && rung == 0) continue;
    const gpu::Geometry& next = ladder_[promote ? rung + 1 : rung - 1];
    if (!node.begin_reconfigure(next)) continue;
    if (promote) {
      ++stats_.promotes;
    } else {
      ++stats_.demotes;
    }
    // The per-tick budget bounds simultaneous MIG downtime; soft-sliced
    // GPUs repartition in place with none, so they don't consume it.
    if (node.gpu().mode() != gpu::SharingMode::kSoftSlice) --budget;
  }
}

void AutoscaleController::apply_warm(int warm_per_node) {
  if (warm_per_node <= 0 || strict_model_ == nullptr) return;
  for (NodeId id = 0; id < cluster_.node_count(); ++id) {
    if (decommissioning_.count(id) != 0) continue;
    cluster::WorkerNode& node = cluster_.node(id);
    if (!node.accepting()) continue;
    stats_.warm_boosts += static_cast<std::uint64_t>(
        node.boost_warm(*strict_model_, warm_per_node));
  }
}

void AutoscaleController::apply_prefetch() {
  if (!config_.prefetch || strict_model_ == nullptr) return;
  for (NodeId id = 0; id < cluster_.node_count(); ++id) {
    if (decommissioning_.count(id) != 0) continue;
    cluster::WorkerNode& node = cluster_.node(id);
    if (!node.accepting() || node.cache() == nullptr) continue;
    stats_.prefetched_slices += static_cast<std::uint64_t>(
        node.cache()->prefetch(strict_model_));
  }
}

void AutoscaleController::on_scrape(SimTime now, double window_attainment_pct,
                                    std::uint64_t window_strict_total) {
  ++stats_.ticks;
  drain_decommissions();
  const Signals signals = gather(now, window_attainment_pct,
                                 window_strict_total);
  Decision decision = policy_->decide(signals, config_);
  const std::uint32_t desired =
      std::clamp(decision.target_nodes, min_nodes_, max_nodes_);
  const std::uint32_t target = gate_.apply(signals.committed_nodes, desired);
  if (target != signals.committed_nodes) scale_to(target);
  apply_vertical(decision.vertical);
  apply_warm(decision.warm_per_node);
  if (decision.prefetch_strict) apply_prefetch();

  const std::uint32_t committed = committed_nodes();
  stats_.peak_nodes = std::max(stats_.peak_nodes, committed);
  stats_.low_nodes = std::min(stats_.low_nodes, committed);
  stats_.committed_ticks += static_cast<double>(committed);
}

}  // namespace protean::autoscale
