// Spot/on-demand VM market and cost-aware procurement (Sections 2.3, 4.5).
//
// Mirrors the paper's emulation: one VM hosts each worker node; spot VMs
// receive revocation notices at fixed check intervals with probability
// P_rev (values derived from Narayanan et al.: 0 / 0.354 / 0.708 for
// high / moderate / low spot availability). A notice arrives
// `eviction_notice` seconds before the VM dies (>= 30 s per AWS/Azure/GCP).
// The same P_rev also models market tightness on the *acquisition* side: a
// spot request succeeds with probability 1 - P_rev.
//
// Procurement policies:
//  * kOnDemandOnly — baseline frameworks: reliable, expensive.
//  * kSpotOnly     — aggressive variant: waits (retrying) when the spot
//                    market has no capacity; nodes can stay down.
//  * kHybrid       — PROTEAN: falls back to on-demand instantly when a spot
//                    request fails, and opportunistically migrates back to
//                    spot when capacity returns.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "sim/simulator.h"
#include "spot/price_model.h"

namespace protean::spot {

enum class VmTier : std::uint8_t { kOnDemand, kSpot };
enum class ProcurementPolicy : std::uint8_t {
  kOnDemandOnly,
  kSpotOnly,
  kHybrid
};

const char* to_string(VmTier tier) noexcept;
const char* to_string(ProcurementPolicy policy) noexcept;

/// One row of Table 3: hourly prices for an 8×A100 instance.
struct ProviderPricing {
  const char* provider;
  double on_demand_hourly;
  double spot_hourly;
  double savings_pct() const noexcept {
    return 100.0 * (1.0 - spot_hourly / on_demand_hourly);
  }
};

/// The paper's Table 3 (averaged US-east/west prices at time of writing).
const std::vector<ProviderPricing>& pricing_table();

/// Cluster-side listener for VM lifecycle events.
class NodeLifecycleListener {
 public:
  virtual ~NodeLifecycleListener() = default;
  /// A spot VM hosting `node` will be evicted at `eviction_at`; stop
  /// routing new work to it and drain.
  virtual void on_eviction_notice(NodeId node, SimTime eviction_at) = 0;
  /// The VM died; any work still on the node is lost.
  virtual void on_node_evicted(NodeId node) = 0;
  /// A replacement VM is up; the node may serve again.
  virtual void on_node_restored(NodeId node, VmTier tier) = 0;
};

struct MarketConfig {
  ProcurementPolicy policy = ProcurementPolicy::kHybrid;
  double p_rev = 0.0;                      ///< revocation probability
  Duration revocation_check_interval = 60.0;
  Duration eviction_notice = 30.0;
  Duration vm_boot_time = 25.0;            ///< replacement provisioning time
  Duration spot_retry_interval = 30.0;     ///< spot-only reacquisition retry
  /// Probability a spot *request* is granted; negative derives 1 - p_rev
  /// (tight revocation markets are also tight acquisition markets).
  double spot_availability = -1.0;
  /// Dynamic-pricing mode (extension; see spot/price_model.h): when set,
  /// revocations fire while price(t) > bid, acquisitions succeed while
  /// price(t) <= bid, and spot leases accrue the time-varying price.
  /// p_rev / spot_availability are ignored in this mode.
  std::shared_ptr<const PriceTrace> price_trace;
  double bid = 0.0;
  std::uint64_t seed = 11;
  /// Nodes brought up by start(). 0 (the default) provisions the whole
  /// fleet — the legacy static-fleet behaviour; the autoscaler passes the
  /// base fleet here and keeps the remaining slots parked for acquire().
  std::uint32_t initial_nodes = 0;
  /// Fleet size the on-demand reference cost is computed against. 0 (the
  /// default) uses the full slot count; the autoscaler pins this to the
  /// base fleet so elastic runs are compared against the same static bill.
  std::uint32_t reference_nodes = 0;
};

/// Simulates the market for a fixed fleet of worker nodes.
class Market {
 public:
  Market(sim::Simulator& simulator, const MarketConfig& config,
         std::uint32_t node_count, NodeLifecycleListener& listener);
  ~Market();
  Market(const Market&) = delete;
  Market& operator=(const Market&) = delete;

  /// Provisions the initial fleet (nodes come up immediately at t=0 so the
  /// experiment starts with full capacity) and starts the revocation clock.
  void start();
  void stop();

  bool node_up(NodeId node) const;
  bool node_draining(NodeId node) const;
  /// True while an acquire() is waiting out the VM boot time.
  bool node_acquiring(NodeId node) const;
  VmTier node_tier(NodeId node) const;
  std::uint32_t nodes_up() const;

  // ---- elastic fleet (the autoscaler's horizontal actions) ----------------
  /// Requests a VM for a parked slot. The node comes up after the normal
  /// vm_boot_time through the configured procurement path (spot requests
  /// still face market availability). False when the slot is already up or
  /// already being acquired, or the market is stopped.
  bool acquire(NodeId node, bool prefer_spot);
  /// Returns an up VM to the provider (controlled decommission: the caller
  /// drained the node first). Settles its lease cost and notifies the
  /// listener via on_node_evicted; not counted as an eviction. False when
  /// the node is not up or the market is stopped.
  bool release(NodeId node);
  int releases() const noexcept { return releases_; }

  /// Dollars accrued by all VMs up to now.
  double total_cost() const;
  /// Cost of running the same fleet purely on-demand for the same elapsed
  /// time (the baseline all compared schemes pay).
  double on_demand_reference_cost() const;

  int evictions() const noexcept { return evictions_; }

  /// Abrupt spot kill (fault injection): the VM dies *now*, with no
  /// eviction notice. Only spot-tier VMs can be killed this way; a
  /// replacement is provisioned after the normal boot time under the
  /// configured procurement policy. Returns false when the node is not an
  /// up spot VM (the fault misses).
  bool force_kill(NodeId node);

 private:
  struct NodeState {
    bool up = false;
    bool draining = false;
    bool acquiring = false;  // an acquire() boot is in flight
    VmTier tier = VmTier::kOnDemand;
    SimTime vm_since = 0.0;
    double accrued_cost = 0.0;  // cost of *finished* VM leases
  };

  bool spot_request_succeeds();
  double lease_cost(VmTier tier, SimTime from, SimTime to) const;
  void provision(NodeId node, bool prefer_spot);
  void bring_up(NodeId node, VmTier tier);
  void revocation_check();
  void issue_eviction(NodeId node);
  void settle_cost(NodeId node);
  double hourly(VmTier tier) const noexcept;

  sim::Simulator& sim_;
  MarketConfig config_;
  NodeLifecycleListener& listener_;
  std::vector<NodeState> nodes_;
  Rng rng_;
  std::unique_ptr<sim::PeriodicTask> revocation_task_;
  std::unique_ptr<sim::PeriodicTask> upgrade_task_;
  SimTime started_at_ = 0.0;
  bool running_ = false;
  int evictions_ = 0;
  int releases_ = 0;
};

}  // namespace protean::spot
