// Cluster: wires gateway, dispatcher, worker nodes, scheduler, metrics and
// the VM market into one serverless deployment (the whole of Fig. 4).
//
// Scale path (docs/scale.md): the control plane can run `config.shards`
// gateways side by side, each batching its share of the arrival stream with
// its own scheduler instance over a contiguous node range; a
// power-of-two-choices layer balances dispatches across shards. Placement
// consults incrementally-maintained per-shard load indexes instead of
// scanning every node, and fleet-wide counters are pushed by the nodes so
// aggregate getters are O(1). All of it is byte-identical at `shards == 1`
// with the historical single-gateway, full-scan control plane.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "attr/attribution.h"
#include "cluster/config.h"
#include "common/pool.h"
#include "common/rng.h"
#include "cluster/gateway.h"
#include "cluster/node.h"
#include "cluster/scheduler.h"
#include "fault/injector.h"
#include "metrics/collector.h"
#include "sim/simulator.h"
#include "spot/market.h"
#include "workflow/runtime.h"

namespace protean::cluster {

class Cluster : public spot::NodeLifecycleListener, public fault::FaultTarget {
 public:
  /// `shard_schedulers` must hold one scheduler per shard when
  /// config.shards > 1 (node i is placed by its shard's scheduler); it is
  /// ignored — and may be empty — on the single-shard control plane, where
  /// `scheduler` drives everything exactly as before.
  Cluster(sim::Simulator& simulator, const ClusterConfig& config,
          Scheduler& scheduler, std::vector<Scheduler*> shard_schedulers = {});
  ~Cluster() override;
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Brings the fleet up and starts the monitor loop. Call before running
  /// the simulator.
  void start();
  /// Stops periodic activity so the event queue can drain.
  void stop();

  // ---- plumbing ------------------------------------------------------------
  /// Where the trace driver feeds arrivals: the gateway itself on a
  /// single-shard control plane, the round-robin fan-out across the shard
  /// gateways otherwise.
  trace::RequestSink& sink() noexcept;
  /// The first (shard 0) gateway — the only one at `shards == 1`.
  Gateway& gateway() noexcept { return *gateways_.front(); }
  Gateway& gateway(std::size_t shard) { return *gateways_.at(shard); }
  std::size_t shard_count() const noexcept { return shards_.size(); }
  /// Requests seen across all shard gateways.
  std::uint64_t gateway_requests_seen() const noexcept;
  /// Seals every partial batch on every gateway (end-of-experiment drain).
  void flush_gateways();
  /// Max shard load over mean shard load (1 when idle or single-shard) —
  /// the autoscaler's per-shard imbalance signal.
  double shard_load_skew() const;
  metrics::Collector& collector() noexcept { return collector_; }
  const metrics::Collector& collector() const noexcept { return collector_; }
  spot::Market& market() noexcept { return *market_; }
  Scheduler& scheduler() noexcept { return scheduler_; }
  const ClusterConfig& config() const noexcept { return config_; }

  WorkerNode& node(NodeId id) { return *nodes_.at(id); }
  std::size_t node_count() const noexcept { return nodes_.size(); }

  /// Load-balances a batch to the least-loaded accepting node; batches are
  /// parked when no node can take them (e.g. spot drought) and re-released
  /// as capacity returns.
  void dispatch(workload::Batch&& batch);

  // ---- autoscaler support --------------------------------------------------
  /// Gracefully drains a node ahead of a controlled release: new work stops
  /// routing to it and its queued batches move to other nodes; running jobs
  /// finish. The autoscaler calls Market::release once the node is idle.
  void begin_decommission(NodeId node);
  /// Reverses begin_decommission (the load came back before release).
  void cancel_decommission(NodeId node);

  // ---- spot::NodeLifecycleListener ----------------------------------------
  void on_eviction_notice(NodeId node, SimTime eviction_at) override;
  void on_node_evicted(NodeId node) override;
  void on_node_restored(NodeId node, spot::VmTier tier) override;

  // ---- fault::FaultTarget --------------------------------------------------
  std::size_t fault_domain_size() const override;
  /// Hard node crash: in-flight work is lost (and retried when configured),
  /// the VM reboots after config.fault.reboot_delay.
  bool inject_crash(NodeId node) override;
  /// Abrupt spot kill, routed through the market (no eviction notice).
  bool inject_spot_kill(NodeId node) override;
  /// Per-slice ECC degradation on the node's GPU.
  bool inject_ecc_failure(NodeId node, double slice_selector) override;

  /// The fault engine; nullptr unless config.fault.enabled.
  const fault::FaultInjector* injector() const noexcept {
    return injector_.get();
  }

  /// The workflow runtime; nullptr unless config.workflow.enabled.
  const workflow::WorkflowRuntime* workflow() const noexcept {
    return workflow_.get();
  }

  /// The attribution engine; nullptr unless config.attr.enabled.
  const attr::AttributionEngine* attribution() const noexcept {
    return attr_.get();
  }

  // ---- fleet-wide stats ----------------------------------------------------
  // Each aggregate is summed over the nodes when it is read; its readers
  // run once per run (the report) or once per telemetry scrape.
  /// Percentage of wall time with >= 1 job running, averaged over GPUs.
  double gpu_utilization_pct() const;
  /// Average fraction of total GPU memory in use, in percent.
  double memory_utilization_pct() const;
  std::uint64_t total_cold_starts() const;
  std::uint64_t total_dropped_jobs() const;
  int total_reconfigurations() const;
  /// Batches whose in-flight execution was aborted by injected faults.
  std::uint64_t total_lost_batches() const;
  /// Reconfiguration attempts that timed out under injected faults.
  int total_failed_reconfigurations() const;
  std::size_t backlog() const noexcept { return backlog_.size(); }

  /// Cross-checks every shard's dispatch index against live node state:
  /// the accepting and ready bitsets, the least-loaded order and load sum,
  /// and each node's dispatch_estimate() memo against a fresh evaluation.
  /// Returns an empty string when all agree, else the first mismatch. Runs
  /// in every build type (tests call it between events); Debug builds also
  /// check the dispatching shard on every pick.
  std::string audit_dispatch_index() const;

 private:
  /// Membership over one shard's contiguous slot range: bit i is node
  /// lo + i. Rank selection walks words with popcount, so a draw costs
  /// O(range / 64) and never allocates.
  struct SlotSet {
    std::vector<std::uint64_t> words;
    std::size_t count = 0;

    void resize(std::size_t slots) { words.assign((slots + 63) / 64, 0); }
    bool test(std::size_t i) const noexcept {
      return (words[i / 64] >> (i % 64)) & 1u;
    }
    void assign(std::size_t i, bool on) noexcept;
    /// Offset of the k-th set bit, lowest first; k must be below count.
    std::size_t select(std::size_t k) const;
  };
  /// Tournament tree over one shard's slot range: leaf i holds slot i's
  /// key and every inner node the lower (key, slot) of its two children,
  /// the left one on ties, so the root is the argmin with the lowest-slot
  /// tie-break. Padding leaves past the range hold +inf. An update rewrites
  /// one leaf-to-root path and stops at the first unchanged winner; nothing
  /// allocates after resize().
  struct LoadTree {
    struct Entry {
      double key = 0.0;
      std::uint32_t slot = 0;
      bool operator==(const Entry&) const = default;
    };
    std::size_t leaves = 0;     // a power of two >= the slot count
    std::vector<Entry> nodes;   // 1-based heap layout; leaves at [leaves, 2·leaves)

    void resize(std::size_t slots);
    void set(std::size_t slot, double key);
    const Entry& root() const noexcept { return nodes[1]; }
    /// The winner of two entries (`a` is the left one).
    static const Entry& lower(const Entry& a, const Entry& b) noexcept {
      return b.key < a.key ? b : a;
    }
  };
  /// Incrementally-maintained dispatch index for one shard: the accepting
  /// set and its ready subset (accepting and not reconfiguring) as
  /// id-ordered bitsets for random routing, consolidation and fallbacks; a
  /// tournament tree keyed by outstanding work on ready slots (+inf on the
  /// rest) for least-loaded routing; and the running load sum the p2c layer
  /// compares.
  struct ShardState {
    NodeId lo = 0;  // contiguous node-slot range [lo, hi)
    NodeId hi = 0;
    LoadTree by_load;
    SlotSet accepting;
    SlotSet ready;
    double load_sum = 0.0;
  };
  /// Per-node mirror of what the index last saw, so updates touch only what
  /// changed: the outstanding work summed into load_sum (while a member)
  /// and the node's tree key.
  struct IndexEntry {
    double load = 0.0;
    bool member = false;
  };

  void monitor_tick();
  void drain_backlog();
  /// Registers cluster/gateway/node instruments into config.telemetry.
  void register_telemetry(telemetry::MetricsRegistry& registry);
  WorkerNode* pick_node(const workload::Batch& batch);
  /// The configured dispatch policy, before the workflow layer's DAG-aware
  /// co-location preference is applied on top: p2c shard choice, then the
  /// policy within the shard (spilling to sibling shards when it is empty).
  WorkerNode* pick_node_base(const workload::Batch& batch);
  WorkerNode* pick_in_shard(const workload::Batch& batch, std::size_t shard);
  std::size_t pick_shard();
  std::uint32_t shard_of(NodeId id) const noexcept;
  /// Load-listener target: refreshes node `id`'s index entry and its
  /// accepting/ready bits.
  void on_node_load_changed(NodeId id);
  /// audit_dispatch_index() for one shard.
  std::string audit_shard(std::size_t s) const;
  /// Indexed least-loaded choice in a shard: the tree's root among ready
  /// nodes, against the reconfiguring accepting nodes with a short queue.
  /// nullptr when no node qualifies.
  WorkerNode* least_loaded_pick(const ShardState& shard) const;
  /// Reference least-loaded scan over [lo, hi); audit_shard checks every
  /// shard's indexed choice against it.
  WorkerNode* least_loaded_scan(NodeId lo, NodeId hi) const;
  /// Retry/drop decision for a batch aborted by a fault.
  void on_lost_batch(workload::Batch&& batch);
  /// Arms the hedge timer for a fresh strict batch when hedging is on.
  void maybe_arm_hedge(workload::Batch& batch);
  /// Node completion hook for workflow stage batches: expands successor
  /// stages through the runtime and dispatches them.
  void on_stage_complete(workload::Batch&& batch);

  sim::Simulator& sim_;
  ClusterConfig config_;
  Scheduler& scheduler_;
  std::vector<Scheduler*> shard_schedulers_;
  metrics::Collector collector_;
  std::vector<std::unique_ptr<WorkerNode>> nodes_;
  std::vector<std::unique_ptr<Gateway>> gateways_;
  std::unique_ptr<trace::RequestSink> fanout_;  // arrival splitter, shards > 1
  std::vector<ShardState> shards_;
  std::vector<IndexEntry> index_;
  std::unique_ptr<spot::Market> market_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<workflow::WorkflowRuntime> workflow_;
  std::unique_ptr<attr::AttributionEngine> attr_;
  bool pipeline_conscious_ = false;
  std::unique_ptr<sim::PeriodicTask> monitor_task_;
  std::unique_ptr<sim::PeriodicTask> backlog_task_;
  std::deque<workload::Batch> backlog_;
  /// Recycles the shared_ptr boxes the hedge/transfer/retry paths put
  /// batches into for deferred events (common/pool.h).
  common::ObjectPool<workload::Batch> batch_pool_;
  /// Strict batches that armed a hedge timer (the hedge budget's base).
  std::uint64_t hedge_candidates_ = 0;
  DispatchPolicy dispatch_policy_ = DispatchPolicy::kRandom;
  /// Seed of the dispatcher's random routing.
  static constexpr std::uint64_t kDispatchSeed = 0x5eed;
  Rng dispatch_rng_ = Rng(kDispatchSeed).fork(0xd15);
  /// p2c draws; untouched at shards == 1.
  Rng shard_rng_ = Rng(kDispatchSeed).fork(0x51a2d);
  SimTime started_at_ = 0.0;
};

}  // namespace protean::cluster
