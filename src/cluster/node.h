// Worker node: one GPU, a batch queue, and a warm-container pool.
//
// The node owns the per-node pieces of Fig. 4: request reordering ③ (strict
// batches drain ahead of BE ones when the policy asks for it), container
// lifecycle with the autoscaler's reactive scale-up and delayed termination
// ④ (one container per batch; warm containers persist for keep_alive), and
// the dispatch loop that asks the Scheduler's Job Distribution logic ⑤
// where each batch should run.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "cluster/config.h"
#include "cluster/scheduler.h"
#include "common/ring.h"
#include "common/rng.h"
#include "gpu/engine.h"
#include "memcache/model_cache.h"
#include "metrics/collector.h"
#include "sim/simulator.h"
#include "workload/batch.h"

namespace protean::telemetry {
class Counter;
}

namespace protean::cluster {

class WorkerNode {
 public:
  WorkerNode(sim::Simulator& simulator, NodeId id, const ClusterConfig& config,
             Scheduler& scheduler, metrics::Collector& collector);
  ~WorkerNode();
  WorkerNode(const WorkerNode&) = delete;
  WorkerNode& operator=(const WorkerNode&) = delete;

  NodeId id() const noexcept { return id_; }
  gpu::Gpu& gpu() noexcept { return *gpu_; }
  const gpu::Gpu& gpu() const noexcept { return *gpu_; }
  /// The scheduler placing work on this node (its shard's scheduler when
  /// the control plane is sharded).
  Scheduler& scheduler() noexcept { return scheduler_; }

  /// Invoked whenever any dispatch input may have changed — accepting(),
  /// outstanding_work(), or gpu().reconfiguring() — so the dispatcher's
  /// per-shard indexes can update incrementally. The reconfiguring flag
  /// fires it right after begin_reconfigure takes the GPU down and from the
  /// GPU capacity callback, which runs whenever a reconfiguration ends
  /// (including a failed, timed-out one).
  void set_load_listener(std::function<void()> fn) {
    load_listener_ = std::move(fn);
  }

  /// Live slices in canonical ascending order (gpu::slice_order_ascending),
  /// cached per GPU topology version so hot placement paths skip the
  /// per-call sort. Empty while the GPU reconfigures or the VM is down.
  const std::vector<gpu::Slice*>& sorted_slices();

  /// The node's model-weight cache; nullptr unless config.memcache.enabled.
  const memcache::ModelCache* cache() const noexcept { return cache_.get(); }
  memcache::ModelCache* cache() noexcept { return cache_.get(); }

  /// The deployment's span tracer (src/obs); nullptr when tracing is off.
  /// Schedulers use it to emit placement-decision records.
  obs::Tracer* tracer() const noexcept { return config_.tracer; }

  /// Registers this node's instruments (src/telemetry): queue/running
  /// gauges, per-slice pressure/slowdown/resident-GB, and the
  /// placement-decision counters trace_placement feeds.
  void register_telemetry(telemetry::MetricsRegistry& registry);

  /// Placement-decision accounting (called by trace_placement on every
  /// Scheduler::place, independent of tracing). No-op until
  /// register_telemetry installs the counters.
  void count_placement(bool placed);

  // ---- lifecycle (driven by the spot market) ------------------------------
  bool up() const noexcept { return up_; }
  bool draining() const noexcept { return draining_; }
  bool accepting() const noexcept { return up_ && !draining_; }
  void set_draining(bool draining) {
    if (draining_ == draining) return;
    draining_ = draining;
    notify_load();
  }
  /// Marks the node down; returns queued-but-unstarted batches for
  /// redistribution and counts still-running jobs as dropped.
  std::vector<workload::Batch> evict();
  /// Removes and returns all queued batches (drain on eviction notice);
  /// the node keeps running its in-flight jobs.
  std::vector<workload::Batch> take_queue();
  /// Brings a replacement VM online; the container pool starts cold.
  void restore();

  // ---- fault injection (src/fault) ---------------------------------------
  /// Installed by the cluster when fault injection is on. Receives batches
  /// whose in-flight execution was aborted (crash, spot kill, ECC); the
  /// handler decides between retry and drop. Without a handler, aborted
  /// work falls back to the legacy dropped-jobs accounting.
  void set_lost_batch_handler(std::function<void(workload::Batch&&)> fn) {
    lost_handler_ = std::move(fn);
  }
  /// Per-slice ECC degradation: kills one slice (chosen by `selector` in
  /// [0,1)), the MIG geometry heals around it, and a repair reconfiguration
  /// back to the healthy layout is scheduled after fault.ecc_repair_delay.
  /// Returns false when the fault cannot land (node down, mid-reconfig,
  /// already degraded, or only one slice left).
  bool inject_ecc(double selector);
  bool ecc_degraded() const noexcept { return ecc_degraded_; }

  // ---- workflows (src/workflow) ------------------------------------------
  /// Installed by the cluster when workflows are on. Stage-batch
  /// completions route here (the runtime accounts components and expands
  /// successors) instead of Collector::record(); node-side accounting
  /// (running count, pools, outstanding work) is identical either way.
  void set_stage_complete_handler(std::function<void(workload::Batch&&)> fn) {
    stage_complete_ = std::move(fn);
  }

  // ---- queue ---------------------------------------------------------------
  void enqueue(workload::Batch batch);
  std::size_t queued() const noexcept { return queue_.size(); }
  std::size_t running() const noexcept { return running_; }
  /// Batches parked in the in-flight table (their jobs are on the GPU),
  /// and the table's size, occupied or free.
  std::size_t in_flight() const noexcept {
    return in_flight_.size() - in_flight_free_.size();
  }
  std::size_t in_flight_slots() const noexcept { return in_flight_.size(); }
  /// Load metric for the dispatcher: solo-time-weighted outstanding work.
  double outstanding_work() const noexcept { return outstanding_work_; }
  /// Estimated contention pressure of this node's GPU: resident slice
  /// pressure plus the demand of queued batches (consolidating dispatch).
  double estimated_pressure() const noexcept;
  /// Free GPU memory across live slices, minus queued batch demand.
  MemGb estimated_free_memory() const noexcept;
  /// Both estimates, as consolidating dispatch reads them per candidate.
  struct DispatchEstimate {
    double pressure = 0.0;
    MemGb free_memory = 0.0;
  };
  /// Memoized {estimated_pressure(), estimated_free_memory()}: recomputed
  /// by the same summation only when the GPU's state_version() or this
  /// node's queue has changed since the last call, so every value is
  /// bit-identical to a fresh evaluation.
  const DispatchEstimate& dispatch_estimate() const noexcept;
  /// Sums over the queued best-effort batches, in queue order.
  struct BeQueueSums {
    MemGb mem = 0.0;        ///< summed memory footprint
    std::size_t count = 0;  ///< batches
    double fbr = 0.0;       ///< summed FBR
    /// The largest footprint, and the model of the first batch that has it
    /// (null while no BE batch is queued).
    MemGb max_mem = 0.0;
    const workload::ModelProfile* max_mem_model = nullptr;
  };
  /// Memoized BeQueueSums: recomputed by one queue walk only when the
  /// queue has changed since the last call, so every value is bit-identical
  /// to a fresh walk. A backlogged node's placements read it once per
  /// queued batch per dispatch pass.
  const BeQueueSums& be_queue_sums() const noexcept;
  /// Total GPU memory demanded by queued best-effort batches (Algorithm 1's
  /// BE_mem input).
  MemGb be_mem_queued() const noexcept { return be_queue_sums().mem; }
  /// Count of queued best-effort batches.
  std::size_t be_queued() const noexcept { return be_queue_sums().count; }
  /// FBR per GB of the queued best-effort batches, used to turn tag values
  /// into expected interference. Zero when nothing is queued.
  double be_fbr_density() const noexcept;
  /// When a strict batch last arrived at this node (kNeverTime negated:
  /// -inf until one ever arrives). Policies use this to decide whether
  /// strict work is "present".
  SimTime last_strict_seen() const noexcept { return last_strict_seen_; }
  /// Memory footprint of the most recently enqueued BE batch (the
  /// reconfigurator's per-batch fit signal survives an empty queue).
  MemGb last_be_batch_mem() const noexcept { return last_be_batch_mem_; }
  /// The model of the most recently enqueued BE batch (profiling input to
  /// the reconfigurator's thresholds); nullptr until one arrives.
  const workload::ModelProfile* last_be_model() const noexcept {
    return last_be_model_;
  }
  /// Expected *concurrent* BE memory footprint by Little's law over the
  /// window since the last call: Σ(mem_i × solo_i) / window. Resets the
  /// window (one consumer: the reconfigurator's monitor tick).
  MemGb take_be_demand_estimate();
  const common::Ring<workload::Batch>& queue() const noexcept {
    return queue_;
  }

  /// Attempts to start queued batches; invoked on enqueue, job completion,
  /// container boot, and reconfiguration completion.
  void try_dispatch();

  /// Starts a MIG geometry change and redistributes queued batches through
  /// the cluster (set_redistribute) so they don't wait out the downtime.
  bool begin_reconfigure(const gpu::Geometry& target);
  void set_redistribute(std::function<void(workload::Batch&&)> fn) {
    redistribute_ = std::move(fn);
  }

  // ---- stats ---------------------------------------------------------------
  std::uint64_t cold_starts() const noexcept { return cold_starts_; }
  std::uint64_t batches_served() const noexcept { return batches_served_; }
  std::uint64_t dropped_jobs() const noexcept { return dropped_jobs_; }
  /// Batches whose in-flight execution was aborted by an injected fault.
  std::uint64_t lost_batches() const noexcept { return lost_batches_; }
  /// Reconfiguration attempts that timed out (injected), incl. retired GPUs.
  int failed_reconfigurations() const noexcept {
    return failed_reconfigs_retired_ +
           (gpu_ ? gpu_->failed_reconfigurations() : 0);
  }
  int warm_containers() const noexcept;
  /// GPU busy/memory integrals including GPUs retired by VM evictions.
  double gpu_busy_seconds() const noexcept {
    return gpu_busy_retired_ + (gpu_ ? gpu_->busy_seconds() : 0.0);
  }
  double gpu_memory_gb_seconds() const noexcept {
    return gpu_mem_retired_ + (gpu_ ? gpu_->memory_gb_seconds() : 0.0);
  }
  int reconfigurations() const noexcept {
    return reconfigs_retired_ + (gpu_ ? gpu_->reconfigurations() : 0);
  }
  /// Busy seconds lost to weight swapping (oversubscribed model cache),
  /// including GPUs retired by VM evictions.
  double swap_stall_seconds() const noexcept {
    return swap_stall_retired_ + (gpu_ ? gpu_->swap_stall_seconds() : 0.0);
  }

  /// Seeds warm containers for a model (a long-running deployment has them;
  /// experiments use this to start in the steady state the paper measures).
  void prewarm(const workload::ModelProfile& model, int count);

  /// Idle warm containers currently pooled for `model`.
  int warm_count(const workload::ModelProfile& model) const;
  /// Predictive warm-pool boost (the autoscaler's warm floor): boots
  /// containers in the background until warm + busy + booting reaches
  /// `target`. Proactive boots pay the normal cold-start delay but are
  /// counted separately from reactive cold starts (proactive_boots()).
  /// Returns the number of boots started.
  int boost_warm(const workload::ModelProfile& model, int target);
  std::uint64_t proactive_boots() const noexcept { return proactive_boots_; }

  /// True when a batch of `model` can obtain a container now: a warm one is
  /// idle, or the pool is empty so a cold start is unavoidable. When false,
  /// the batch waits (a container frees within ~one exec time, far less
  /// than a cold start) while a spare boots in the background — the
  /// reactive scale-up of Section 4.2.
  bool container_available(const workload::ModelProfile& model) const;

 private:
  /// One model's containers on this node.
  struct ContainerPool {
    const workload::ModelProfile* model = nullptr;
    int busy = 0;                // containers currently serving a batch
    int proactive_booting = 0;   // autoscaler warm-pool boots in flight
    bool spare_booting = false;  // background scale-up in flight
    /// When each idle warm container went idle, oldest first: dispatch
    /// reuses the most recently idled (back), the reaper expires from the
    /// front.
    common::Ring<SimTime> idle_since;

    int warm() const noexcept { return static_cast<int>(idle_since.size()); }
  };

  /// The pool of `model`, created empty on first use. Creating a pool may
  /// move the others, so no pool reference is held across this call.
  ContainerPool& pool_for(const workload::ModelProfile& model);
  /// The pool of `model`, or nullptr before its first use.
  const ContainerPool* find_pool(
      const workload::ModelProfile& model) const noexcept;

  /// Builds this node's GPU with the substrate-resolved sharing mode
  /// (src/softgpu may override the scheduler's native mode per node).
  std::unique_ptr<gpu::Gpu> make_gpu();
  void start_batch(workload::Batch batch, gpu::Slice* slice);
  void maybe_boot_spare(const workload::ModelProfile& model);
  /// Re-registers the live slice set with the cache after a reconfiguration
  /// (detected by the GPU's completed-reconfiguration counter).
  void maybe_sync_cache();
  void begin_exec(workload::Batch batch, SliceId slice_id, bool reserved);
  void on_complete(workload::Batch batch, const gpu::JobCompletion& done);
  /// Unwinds node-side accounting for a fault-aborted batch and routes it to
  /// the lost-batch handler (or the legacy drop path without one).
  void handle_lost(workload::Batch batch);
  /// Installs the injected reconfiguration-failure hook on a fresh GPU.
  void install_reconfig_fault_hook();
  /// Schedules the post-repair reconfiguration back to the healthy layout.
  void schedule_ecc_heal(Duration delay);
  gpu::Slice* find_slice(SliceId slice_id);
  /// The live slice in `slot` (descending-size order), or nullptr when the
  /// slot is absent, the GPU is down, or the VM is gone.
  const gpu::Slice* live_slice(std::size_t slot) const noexcept;
  void reap_containers();
  void insert_by_policy(workload::Batch&& batch);
  /// Reconfiguration-blackout bracketing (src/attr): a queued batch's
  /// reconfig_blackout accrues exactly the GPU downtime it overlapped, as
  /// the difference of the monotone downtime counter at dequeue vs enqueue.
  /// Every insert_by_policy() opens a sample; start_batch/take_queue/evict
  /// close it. Pure bookkeeping — never read by any scheduling decision.
  void open_blackout_sample(workload::Batch& batch) {
    if (gpu_) batch.reconfig_blackout -= gpu_->downtime_seconds();
  }
  void close_blackout_sample(workload::Batch& batch) {
    if (gpu_) batch.reconfig_blackout += gpu_->downtime_seconds();
  }
  void notify_load() {
    if (load_listener_) load_listener_();
  }
  /// The capacity callback installed on every GPU this node builds.
  void on_gpu_capacity();

  sim::Simulator& sim_;
  NodeId id_;
  const ClusterConfig& config_;
  Scheduler& scheduler_;
  metrics::Collector& collector_;
  std::unique_ptr<gpu::Gpu> gpu_;
  std::unique_ptr<memcache::ModelCache> cache_;
  int synced_topology_ = -1;  // forces an initial sync_slices
  std::vector<gpu::Slice*> sorted_slices_;  // ascending; see sorted_slices()
  int sorted_topology_ = -1;

  std::function<void()> load_listener_;

  common::Ring<workload::Batch> queue_;
  /// Bumped on every queue_ mutation, and when restore() installs a GPU
  /// whose state_version() restarts; with that version it stamps the
  /// dispatch_estimate() memo. It alone stamps the be_queue_sums() memo.
  std::uint64_t queue_version_ = 0;
  mutable DispatchEstimate estimate_;
  mutable std::uint64_t estimate_gpu_version_ = 0;
  mutable std::uint64_t estimate_queue_version_ = ~std::uint64_t{0};
  mutable BeQueueSums be_sums_;
  mutable std::uint64_t be_sums_queue_version_ = ~std::uint64_t{0};
  std::function<void(workload::Batch&&)> redistribute_;
  /// Batches executing on the GPU, parked by begin_exec until their job's
  /// completion callback takes them out. The callback captures only the
  /// slot, so it fits std::function's inline buffer and starting a batch
  /// allocates nothing. Free slots are reused last-freed first; evict()
  /// empties the table, since the GPU's reset drops the callbacks unrun.
  std::vector<workload::Batch> in_flight_;
  std::vector<std::uint32_t> in_flight_free_;
  /// One pool per model seen since the VM came up, in first-use order; a
  /// node serves a handful of models, so lookups scan.
  std::vector<ContainerPool> containers_;
  /// Batches whose container is still booting; evictions redistribute them
  /// instead of losing them with the VM.
  std::map<std::uint64_t, workload::Batch> booting_;
  std::uint64_t next_boot_token_ = 1;
  std::unique_ptr<sim::PeriodicTask> reaper_;

  bool up_ = true;
  bool draining_ = false;
  SimTime last_strict_seen_ = -kNeverTime;
  MemGb last_be_batch_mem_ = 0.0;
  const workload::ModelProfile* last_be_model_ = nullptr;
  double be_mem_service_accum_ = 0.0;  // Σ mem_i × solo_i over the window
  SimTime be_window_start_ = 0.0;
  bool dispatch_scheduled_ = false;
  std::size_t running_ = 0;
  double outstanding_work_ = 0.0;
  JobId next_job_id_ = 1;
  std::uint64_t cold_starts_ = 0;
  std::uint64_t proactive_boots_ = 0;
  std::uint64_t batches_served_ = 0;
  std::uint64_t dropped_jobs_ = 0;
  std::uint64_t epoch_ = 0;  // bumped on evict/restore to orphan callbacks
  double gpu_busy_retired_ = 0.0;
  double gpu_mem_retired_ = 0.0;
  double swap_stall_retired_ = 0.0;
  int reconfigs_retired_ = 0;

  // ---- telemetry (inert unless config.telemetry is set) ------------------
  telemetry::Counter* placements_placed_ = nullptr;
  telemetry::Counter* placements_deferred_ = nullptr;

  // ---- workflow state (inert unless config.workflow.enabled) -------------
  std::function<void(workload::Batch&&)> stage_complete_;

  // ---- fault-injection state (inert unless config.fault.enabled) ---------
  std::function<void(workload::Batch&&)> lost_handler_;
  bool ecc_degraded_ = false;
  gpu::Geometry healthy_geometry_;  ///< layout to restore after ECC repair
  std::uint64_t lost_batches_ = 0;
  int failed_reconfigs_retired_ = 0;
  Rng fault_rng_;  ///< drives injected reconfiguration failures
};

}  // namespace protean::cluster
