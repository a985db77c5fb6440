#include "spot/market.h"

#include <algorithm>

#include "common/check.h"

namespace protean::spot {

/// Cadence of the hybrid policy's on-demand → spot migration probe.
constexpr Duration kSpotUpgradeInterval = 120.0;

const char* to_string(VmTier tier) noexcept {
  return tier == VmTier::kOnDemand ? "on-demand" : "spot";
}

const char* to_string(ProcurementPolicy policy) noexcept {
  switch (policy) {
    case ProcurementPolicy::kOnDemandOnly: return "on-demand-only";
    case ProcurementPolicy::kSpotOnly: return "spot-only";
    case ProcurementPolicy::kHybrid: return "hybrid";
  }
  return "?";
}

const std::vector<ProviderPricing>& pricing_table() {
  static const std::vector<ProviderPricing> table = {
      {"AWS", kOnDemandHourly, kSpotHourly},
      {"Microsoft Azure", 32.7700, 18.0235},
      {"Google Cloud", 30.0846, 8.8147},
  };
  return table;
}

Market::Market(sim::Simulator& simulator, const MarketConfig& config,
               std::uint32_t node_count, NodeLifecycleListener& listener)
    : sim_(simulator),
      config_(config),
      listener_(listener),
      nodes_(node_count),
      rng_(Rng(config.seed).fork(0x59a7)) {
  PROTEAN_CHECK_MSG(node_count > 0, "empty fleet");
  PROTEAN_CHECK_MSG(config_.p_rev >= 0.0 && config_.p_rev <= 1.0,
                    "P_rev out of range");
}

Market::~Market() { stop(); }

double Market::hourly(VmTier tier) const noexcept {
  return tier == VmTier::kSpot ? kSpotHourly : kOnDemandHourly;
}

bool Market::spot_request_succeeds() {
  if (config_.price_trace) {
    return config_.price_trace->price_at(sim_.now()) <= config_.bid;
  }
  const double availability = config_.spot_availability >= 0.0
                                  ? config_.spot_availability
                                  : 1.0 - config_.p_rev;
  return rng_.bernoulli(availability);
}

void Market::start() {
  PROTEAN_CHECK_MSG(!running_, "market already started");
  running_ = true;
  started_at_ = sim_.now();
  const bool prefer_spot = config_.policy != ProcurementPolicy::kOnDemandOnly;
  const std::size_t initial =
      config_.initial_nodes == 0
          ? nodes_.size()
          : std::min<std::size_t>(config_.initial_nodes, nodes_.size());
  for (NodeId node = 0; node < initial; ++node) {
    // Initial fleet: the serverless operator had time to provision before
    // the experiment window, so nodes come up instantly. Spot-preferring
    // policies still face market availability.
    if (prefer_spot && spot_request_succeeds()) {
      bring_up(node, VmTier::kSpot);
    } else if (config_.policy == ProcurementPolicy::kSpotOnly) {
      // Keep retrying; the node starts down.
      const NodeId n = node;
      sim_.schedule_after(config_.spot_retry_interval,
                          [this, n] { provision(n, /*prefer_spot=*/true); });
    } else {
      bring_up(node, VmTier::kOnDemand);
    }
  }
  const bool market_can_revoke = config_.p_rev > 0.0 || config_.price_trace;
  if (config_.policy != ProcurementPolicy::kOnDemandOnly &&
      market_can_revoke) {
    revocation_task_ = std::make_unique<sim::PeriodicTask>(
        sim_, config_.revocation_check_interval, [this] { revocation_check(); });
  }
  if (config_.policy == ProcurementPolicy::kHybrid && market_can_revoke) {
    upgrade_task_ = std::make_unique<sim::PeriodicTask>(
        sim_, kSpotUpgradeInterval, [this] {
          // Opportunistically migrate on-demand nodes back to spot. The
          // switch is graceful: the new spot VM boots first, so no downtime.
          for (NodeId node = 0; node < nodes_.size(); ++node) {
            NodeState& st = nodes_[node];
            if (st.up && !st.draining && st.tier == VmTier::kOnDemand &&
                spot_request_succeeds()) {
              settle_cost(node);
              st.tier = VmTier::kSpot;
              st.vm_since = sim_.now();
            }
          }
        });
  }
}

void Market::stop() {
  running_ = false;
  revocation_task_.reset();
  upgrade_task_.reset();
}

void Market::bring_up(NodeId node, VmTier tier) {
  NodeState& st = nodes_.at(node);
  PROTEAN_CHECK_MSG(!st.up, "node already up");
  st.up = true;
  st.draining = false;
  st.acquiring = false;
  st.tier = tier;
  st.vm_since = sim_.now();
  listener_.on_node_restored(node, tier);
}

void Market::provision(NodeId node, bool prefer_spot) {
  if (!running_) return;
  NodeState& st = nodes_.at(node);
  if (st.up) return;  // already replaced via another path
  if (prefer_spot && spot_request_succeeds()) {
    bring_up(node, VmTier::kSpot);
    return;
  }
  if (config_.policy == ProcurementPolicy::kSpotOnly) {
    const NodeId n = node;
    sim_.schedule_after(config_.spot_retry_interval,
                        [this, n] { provision(n, /*prefer_spot=*/true); });
    return;
  }
  bring_up(node, VmTier::kOnDemand);
}

void Market::revocation_check() {
  for (NodeId node = 0; node < nodes_.size(); ++node) {
    NodeState& st = nodes_[node];
    if (!st.up || st.draining || st.tier != VmTier::kSpot) continue;
    if (config_.price_trace) {
      if (config_.price_trace->price_at(sim_.now()) <= config_.bid) continue;
    } else if (!rng_.bernoulli(config_.p_rev)) {
      continue;
    }
    st.draining = true;
    const SimTime eviction_at = sim_.now() + config_.eviction_notice;
    listener_.on_eviction_notice(node, eviction_at);
    // Immediately start procuring a replacement (Section 4.5): the boot
    // time is shorter than the notice, so a hybrid fleet loses no capacity.
    const NodeId n = node;
    const bool prefer_spot = true;
    sim_.schedule_after(config_.vm_boot_time, [this, n, prefer_spot] {
      // Replacement becomes usable after the old VM actually dies (the
      // node identity maps 1:1 to a VM in this emulation).
      if (!nodes_.at(n).up) provision(n, prefer_spot);
    });
    sim_.schedule_after(config_.eviction_notice, [this, n] { issue_eviction(n); });
  }
}

void Market::issue_eviction(NodeId node) {
  NodeState& st = nodes_.at(node);
  if (!st.up) return;
  settle_cost(node);
  st.up = false;
  st.draining = false;
  ++evictions_;
  listener_.on_node_evicted(node);
  // If the replacement's boot already finished, provision now; otherwise
  // the boot callback scheduled at notice time will handle it.
  if (config_.vm_boot_time <= config_.eviction_notice) {
    provision(node, /*prefer_spot=*/true);
  }
}

bool Market::acquire(NodeId node, bool prefer_spot) {
  if (!running_) return false;
  NodeState& st = nodes_.at(node);
  if (st.up || st.acquiring) return false;
  st.acquiring = true;  // cleared by bring_up (spot-only may retry past it)
  const bool spot = prefer_spot &&
                    config_.policy != ProcurementPolicy::kOnDemandOnly;
  const NodeId n = node;
  sim_.schedule_after(config_.vm_boot_time, [this, n, spot] {
    if (!nodes_.at(n).up) provision(n, spot);
  });
  return true;
}

bool Market::release(NodeId node) {
  if (!running_) return false;
  NodeState& st = nodes_.at(node);
  if (!st.up) return false;
  settle_cost(node);
  st.up = false;
  st.draining = false;
  ++releases_;
  listener_.on_node_evicted(node);
  return true;
}

bool Market::force_kill(NodeId node) {
  if (!running_) return false;
  NodeState& st = nodes_.at(node);
  if (!st.up || st.tier != VmTier::kSpot) return false;
  settle_cost(node);
  st.up = false;
  st.draining = false;
  ++evictions_;
  listener_.on_node_evicted(node);
  const NodeId n = node;
  const bool prefer_spot = config_.policy != ProcurementPolicy::kOnDemandOnly;
  sim_.schedule_after(config_.vm_boot_time, [this, n, prefer_spot] {
    if (!nodes_.at(n).up) provision(n, prefer_spot);
  });
  return true;
}

double Market::lease_cost(VmTier tier, SimTime from, SimTime to) const {
  const Duration lease = to - from;
  if (lease <= 0.0) return 0.0;
  if (tier == VmTier::kSpot && config_.price_trace) {
    return lease / 3600.0 * config_.price_trace->average_price(from, to);
  }
  return lease / 3600.0 * hourly(tier);
}

void Market::settle_cost(NodeId node) {
  NodeState& st = nodes_.at(node);
  if (!st.up) return;
  st.accrued_cost += lease_cost(st.tier, st.vm_since, sim_.now());
  st.vm_since = sim_.now();
}

bool Market::node_up(NodeId node) const { return nodes_.at(node).up; }

bool Market::node_draining(NodeId node) const {
  return nodes_.at(node).draining;
}

bool Market::node_acquiring(NodeId node) const {
  return nodes_.at(node).acquiring;
}

VmTier Market::node_tier(NodeId node) const { return nodes_.at(node).tier; }

std::uint32_t Market::nodes_up() const {
  std::uint32_t count = 0;
  for (const auto& st : nodes_) {
    if (st.up) ++count;
  }
  return count;
}

double Market::total_cost() const {
  double total = 0.0;
  for (const auto& st : nodes_) {
    total += st.accrued_cost;
    if (st.up) total += lease_cost(st.tier, st.vm_since, sim_.now());
  }
  return total;
}

double Market::on_demand_reference_cost() const {
  const Duration elapsed = sim_.now() - started_at_;
  const double fleet = config_.reference_nodes != 0
                           ? static_cast<double>(config_.reference_nodes)
                           : static_cast<double>(nodes_.size());
  return fleet * elapsed / 3600.0 * kOnDemandHourly;
}

}  // namespace protean::spot
