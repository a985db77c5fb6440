#include "cluster/node.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"
#include "softgpu/substrate.h"
#include "telemetry/registry.h"

namespace protean::cluster {

gpu::JobSpec Scheduler::make_job(const workload::Batch& batch,
                                 const gpu::Slice& slice, JobId job_id) const {
  gpu::JobSpec spec = workload::job_spec_for(batch, slice.profile());
  spec.id = job_id;
  return spec;
}

void trace_placement(WorkerNode& node, const workload::Batch& batch,
                     const char* scheme, std::size_t candidates,
                     const gpu::Slice* chosen, double score) {
  node.count_placement(chosen != nullptr);
  obs::Tracer* t = node.tracer();
  if (t == nullptr || !t->wants(obs::kSched)) return;
  t->instant(obs::kSched, "sched", static_cast<int>(node.id()) + 1,
             {{"scheme", scheme},
              {"batch", static_cast<double>(batch.id)},
              {"strict", batch.strict ? 1.0 : 0.0},
              {"candidates", static_cast<double>(candidates)},
              {"chosen", chosen != nullptr
                             ? static_cast<double>(chosen->id())
                             : -1.0},
              {"score", score}});
}

WorkerNode::WorkerNode(sim::Simulator& simulator, NodeId id,
                       const ClusterConfig& config, Scheduler& scheduler,
                       metrics::Collector& collector)
    : sim_(simulator),
      id_(id),
      config_(config),
      scheduler_(scheduler),
      collector_(collector),
      fault_rng_(Rng(config.fault.seed).fork(0x8ecf00ULL + id)) {
  if (obs::Tracer* t = config_.tracer; t != nullptr) {
    t->process_name(static_cast<int>(id_) + 1,
                    "node " + std::to_string(id_));
  }
  gpu_ = make_gpu();
  gpu_->set_capacity_callback([this] { on_gpu_capacity(); });
  install_reconfig_fault_hook();
  if (config_.memcache.enabled) {
    cache_ = std::make_unique<memcache::ModelCache>(sim_, config_.memcache,
                                                    &collector_);
    maybe_sync_cache();
  }
  if (config_.keep_alive > 0.0) {
    reaper_ = std::make_unique<sim::PeriodicTask>(
        sim_, config_.reaper_interval, [this] { reap_containers(); });
  }
}

WorkerNode::~WorkerNode() = default;

void WorkerNode::on_gpu_capacity() {
  // A finished reconfiguration clears gpu().reconfiguring(), which the
  // dispatcher's ready index mirrors.
  notify_load();
  try_dispatch();
}

std::unique_ptr<gpu::Gpu> WorkerNode::make_gpu() {
  // The substrate layer may override the scheduler's native sharing mode on
  // this node (software slicing, or a forced hardware mode).
  const softgpu::SoftGpuConfig& sg = config_.softgpu;
  const gpu::SharingMode mode = softgpu::node_mode(
      sg, scheduler_.sharing_mode(), id_, config_.node_count);
  const gpu::SoftParams soft = mode == gpu::SharingMode::kSoftSlice
                                   ? softgpu::engine_params(sg)
                                   : gpu::SoftParams{};
  return std::make_unique<gpu::Gpu>(
      sim_, id_, scheduler_.initial_geometry(), mode,
      config_.reconfigure_time, config_.interference, config_.gpu_memory_gb,
      config_.memcache.enabled, config_.tracer, soft);
}

void WorkerNode::count_placement(bool placed) {
  if (placed) {
    if (placements_placed_ != nullptr) placements_placed_->inc();
  } else {
    if (placements_deferred_ != nullptr) placements_deferred_->inc();
  }
}

void WorkerNode::register_telemetry(telemetry::MetricsRegistry& registry) {
  const std::string node_label = "{node=\"" + std::to_string(id_) + "\"}";
  registry.gauge("node_up" + node_label,
                 [this] { return up_ ? 1.0 : 0.0; });
  registry.gauge("node_queue_depth" + node_label, [this] {
    return static_cast<double>(queue_.size());
  });
  registry.gauge("node_running_jobs" + node_label, [this] {
    return static_cast<double>(running_);
  });
  registry.gauge("node_outstanding_work_seconds" + node_label,
                 [this] { return outstanding_work_; });
  registry.gauge("node_warm_containers" + node_label, [this] {
    return static_cast<double>(warm_containers());
  });
  registry.gauge("node_gpu_busy_seconds_total" + node_label,
                 [this] { return gpu_busy_seconds(); });
  // Whole-GPU aggregates; 0 while the VM is down or the GPU reconfigures.
  registry.gauge("node_gpu_resident_gb" + node_label, [this] {
    return gpu_ ? gpu_->resident_gb() : 0.0;
  });
  registry.gauge("node_gpu_max_pressure" + node_label, [this] {
    return gpu_ ? gpu_->max_pressure() : 0.0;
  });
  registry.gauge("node_gpu_max_slowdown" + node_label, [this] {
    return gpu_ ? gpu_->max_slowdown() : 0.0;
  });
  // Per-slice gauges are keyed by *slot*: index into the live slice list
  // (descending by size), a stable identity within one MIG geometry. A
  // slot reports 0 while absent (fewer slices, reconfiguration, VM down).
  constexpr std::size_t kMaxSlices = 7;  // MIG: at most 7 instances
  for (std::size_t slot = 0; slot < kMaxSlices; ++slot) {
    const std::string label =
        "{node=\"" + std::to_string(id_) + "\",slice=\"" +
        std::to_string(slot) + "\"}";
    registry.gauge("slice_pressure" + label, [this, slot] {
      const gpu::Slice* s = live_slice(slot);
      return s != nullptr ? s->pressure() : 0.0;
    });
    registry.gauge("slice_slowdown" + label, [this, slot] {
      const gpu::Slice* s = live_slice(slot);
      return s != nullptr ? s->current_slowdown() : 0.0;
    });
    registry.gauge("slice_resident_gb" + label, [this, slot] {
      const gpu::Slice* s = live_slice(slot);
      return s != nullptr ? s->memory_in_use() : 0.0;
    });
  }
  placements_placed_ =
      registry.counter("placement_decisions_total" + node_label);
  placements_deferred_ =
      registry.counter("placement_deferred_total" + node_label);
}

void WorkerNode::insert_by_policy(workload::Batch&& batch) {
  open_blackout_sample(batch);
  if (scheduler_.reorder_strict_first() && batch.strict) {
    // Strict batches jump ahead of all queued BE batches but stay FIFO
    // among themselves (Section 4.1).
    auto it = std::find_if(queue_.begin(), queue_.end(),
                           [](const workload::Batch& b) { return !b.strict; });
    queue_.insert(it, std::move(batch));
  } else {
    queue_.push_back(std::move(batch));
  }
  ++queue_version_;
}

void WorkerNode::enqueue(workload::Batch batch) {
  PROTEAN_CHECK_MSG(up_, "enqueue on a down node");
  batch.node = id_;
  batch.enqueued_at = sim_.now();
  if (batch.strict) {
    last_strict_seen_ = sim_.now();
  } else {
    last_be_batch_mem_ = batch.model->mem_gb;
    last_be_model_ = batch.model;
    const double fill = batch.work_fraction();
    be_mem_service_accum_ += batch.model->mem_gb * (0.5 + 0.5 * fill) *
                             batch.model->solo_time_7g * fill;
  }
  outstanding_work_ += batch.model->solo_time_7g;
  notify_load();
  if (obs::Tracer* t = config_.tracer;
      t != nullptr && t->wants(obs::kSpans)) {
    t->async_begin(obs::kSpans, "queue", batch.id,
                   static_cast<int>(id_) + 1, sim_.now(),
                   {{"model", batch.model->name},
                    {"strict", batch.strict ? 1.0 : 0.0}});
  }
  insert_by_policy(std::move(batch));
  try_dispatch();
}

const WorkerNode::BeQueueSums& WorkerNode::be_queue_sums() const noexcept {
  if (be_sums_queue_version_ != queue_version_) {
    BeQueueSums sums;
    for (const auto& b : queue_) {
      if (b.strict) continue;
      sums.mem += b.model->mem_gb;
      ++sums.count;
      sums.fbr += b.model->fbr;
      if (sums.max_mem_model == nullptr || b.model->mem_gb > sums.max_mem) {
        sums.max_mem = b.model->mem_gb;
        sums.max_mem_model = b.model;
      }
    }
    be_sums_ = sums;
    be_sums_queue_version_ = queue_version_;
  }
  return be_sums_;
}

double WorkerNode::be_fbr_density() const noexcept {
  const BeQueueSums& sums = be_queue_sums();
  if (sums.mem <= 0.0) return 0.0;
  return sums.fbr / sums.mem;
}

double WorkerNode::estimated_pressure() const noexcept {
  double total = 0.0;
  if (gpu_) {
    for (const gpu::Slice* s : std::as_const(*gpu_).slices()) {
      total += s->pressure();
    }
  }
  for (const auto& b : queue_) {
    total += std::max(b.model->fbr, b.model->sm_req);
  }
  return total;
}

MemGb WorkerNode::estimated_free_memory() const noexcept {
  MemGb free = 0.0;
  if (gpu_) {
    for (const gpu::Slice* s : std::as_const(*gpu_).slices()) {
      free += s->available_memory();
    }
  }
  for (const auto& b : queue_) free -= b.model->mem_gb;
  return free;
}

const WorkerNode::DispatchEstimate& WorkerNode::dispatch_estimate()
    const noexcept {
  const std::uint64_t gpu_version = gpu_ ? gpu_->state_version() : 0;
  if (estimate_queue_version_ != queue_version_ ||
      estimate_gpu_version_ != gpu_version) {
    estimate_ = {estimated_pressure(), estimated_free_memory()};
    estimate_queue_version_ = queue_version_;
    estimate_gpu_version_ = gpu_version;
  }
  return estimate_;
}

MemGb WorkerNode::take_be_demand_estimate() {
  const Duration window = sim_.now() - be_window_start_;
  const double estimate =
      window > 1e-9 ? be_mem_service_accum_ / window : 0.0;
  be_mem_service_accum_ = 0.0;
  be_window_start_ = sim_.now();
  return estimate;
}

WorkerNode::ContainerPool& WorkerNode::pool_for(
    const workload::ModelProfile& model) {
  for (ContainerPool& pool : containers_) {
    if (pool.model == &model) return pool;
  }
  ContainerPool& pool = containers_.emplace_back();
  pool.model = &model;
  return pool;
}

const WorkerNode::ContainerPool* WorkerNode::find_pool(
    const workload::ModelProfile& model) const noexcept {
  for (const ContainerPool& pool : containers_) {
    if (pool.model == &model) return &pool;
  }
  return nullptr;
}

void WorkerNode::prewarm(const workload::ModelProfile& model, int count) {
  auto& pool = pool_for(model);
  for (int i = 0; i < count; ++i) pool.idle_since.push_back(sim_.now());
}

int WorkerNode::warm_count(const workload::ModelProfile& model) const {
  const ContainerPool* pool = find_pool(model);
  return pool == nullptr ? 0 : pool->warm();
}

int WorkerNode::boost_warm(const workload::ModelProfile& model, int target) {
  if (!up_) return 0;
  auto& pool = pool_for(model);
  const int have = pool.warm() + pool.busy + pool.proactive_booting +
                   (pool.spare_booting ? 1 : 0);
  const int boots = target - have;
  if (boots <= 0) return 0;
  pool.proactive_booting += boots;
  proactive_boots_ += static_cast<std::uint64_t>(boots);
  const std::uint64_t epoch = epoch_;
  for (int i = 0; i < boots; ++i) {
    sim_.schedule_after(config_.cold_start, [this, &model, epoch] {
      if (epoch != epoch_ || !up_) return;
      auto& p = pool_for(model);
      if (p.proactive_booting > 0) --p.proactive_booting;
      p.idle_since.push_back(sim_.now());
      try_dispatch();
    });
  }
  return boots;
}

bool WorkerNode::container_available(
    const workload::ModelProfile& model) const {
  const ContainerPool* pool = find_pool(model);
  if (pool == nullptr) return true;  // first use: cold start
  if (pool->warm() > 0) return true;
  return pool->busy == 0 && !pool->spare_booting;
}

void WorkerNode::maybe_boot_spare(const workload::ModelProfile& model) {
  auto& pool = pool_for(model);
  if (pool.spare_booting) return;
  pool.spare_booting = true;
  ++cold_starts_;
  if (obs::Tracer* t = config_.tracer;
      t != nullptr && t->wants(obs::kSpans)) {
    t->instant(obs::kSpans, "cold_start", static_cast<int>(id_) + 1,
               {{"model", model.name}, {"spare", 1.0}});
  }
  const std::uint64_t epoch = epoch_;
  sim_.schedule_after(config_.cold_start, [this, &model, epoch] {
    if (epoch != epoch_ || !up_) return;
    auto& p = pool_for(model);
    p.spare_booting = false;
    p.idle_since.push_back(sim_.now());
    try_dispatch();
  });
}

void WorkerNode::maybe_sync_cache() {
  if (!cache_ || !gpu_ || gpu_->reconfiguring()) return;
  // Keyed on the topology version, which also covers failed-reconfiguration
  // rebuilds and ECC slice losses (identical to reconfigurations() when
  // fault injection is off).
  if (gpu_->topology_version() == synced_topology_) return;
  const auto live = gpu_->slices();
  cache_->sync_slices({live.begin(), live.end()});
  synced_topology_ = gpu_->topology_version();
}

void WorkerNode::install_reconfig_fault_hook() {
  if (!gpu_ || !config_.fault.enabled || config_.fault.reconfig_fail_prob <= 0.0) {
    return;
  }
  gpu_->set_reconfig_fault(
      [this] { return fault_rng_.bernoulli(config_.fault.reconfig_fail_prob); });
}

void WorkerNode::try_dispatch() {
  if (!up_ || dispatch_scheduled_) return;
  maybe_sync_cache();
  dispatch_scheduled_ = true;
  bool progress = true;
  while (progress && up_) {
    progress = false;
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (!container_available(*it->model)) {
        // All containers busy: a slot frees within ~one batch execution —
        // cheaper than a 'cold' boot — while a spare scales up behind it.
        maybe_boot_spare(*it->model);
        continue;
      }
      gpu::Slice* slice = scheduler_.place(*it, *this);
      if (slice == nullptr) continue;
      workload::Batch batch = std::move(*it);
      queue_.erase(it);
      ++queue_version_;
      start_batch(std::move(batch), slice);
      progress = true;
      break;  // iterators invalidated; rescan from the front
    }
  }
  dispatch_scheduled_ = false;
}

void WorkerNode::start_batch(workload::Batch batch, gpu::Slice* slice) {
  close_blackout_sample(batch);
  const gpu::JobSpec spec = scheduler_.make_job(batch, *slice, next_job_id_++);
  if (!slice->can_admit(spec)) {
    // Defensive: the policy returned a slice that cannot take the job.
    // (The batch's "queue" span stays open — it is still queued.)
    insert_by_policy(std::move(batch));
    return;
  }
  obs::Tracer* tracer = config_.tracer;
  if (tracer != nullptr && tracer->wants(obs::kSpans)) {
    tracer->async_end(obs::kSpans, "queue", batch.id,
                      static_cast<int>(id_) + 1, sim_.now());
  }
  auto& pool = pool_for(*batch.model);
  bool container_cold = false;
  if (pool.warm() > 0) {
    pool.idle_since.pop_back();  // reuse the most recently idle container
  } else {
    PROTEAN_DCHECK(pool.busy == 0 && !pool.spare_booting);
    container_cold = true;
    ++cold_starts_;
    if (tracer != nullptr && tracer->wants(obs::kSpans)) {
      tracer->instant(obs::kSpans, "cold_start", static_cast<int>(id_) + 1,
                      {{"model", batch.model->name}, {"spare", 0.0}});
    }
  }
  ++pool.busy;
  Duration cold = 0.0;
  if (cache_ != nullptr) {
    // Split the cold start into runtime/container init vs weight load; a
    // resident (cached) model skips the weight-load part even when the
    // container itself must boot, and a warm container still pays the
    // weight load when its model's weights were evicted.
    constexpr double load_frac = memcache::kWeightLoadFraction;
    const bool weights_hit = cache_->acquire(*slice, batch.model);
    if (container_cold) cold += config_.cold_start * (1.0 - load_frac);
    if (!weights_hit) {
      cold += config_.cold_start * load_frac;
      batch.weight_load = config_.cold_start * load_frac;
    }
  } else if (container_cold) {
    cold = config_.cold_start;
  }
  batch.cold_start = cold;
  ++running_;
  if (cold <= 0.0) {
    begin_exec(std::move(batch), slice->id(), /*reserved=*/false);
    return;
  }
  // Hold the memory while the container boots, then submit for execution.
  batch.reserved_gb = slice->admission_demand(spec);
  slice->reserve_memory(batch.reserved_gb);
  const SliceId slice_id = slice->id();
  const std::uint64_t epoch = epoch_;
  const std::uint64_t token = next_boot_token_++;
  if (tracer != nullptr && tracer->wants(obs::kSpans)) {
    tracer->async_begin(obs::kSpans, "boot", batch.id,
                        static_cast<int>(id_) + 1, sim_.now(),
                        {{"cold", cold},
                         {"slice", static_cast<double>(slice_id)}});
  }
  booting_.emplace(token, std::move(batch));
  sim_.schedule_after(cold, [this, token, slice_id, epoch] {
    // Look the entry up *first*: whatever happened to the node meanwhile,
    // the batch must leave `booting_` through exactly one accounted path.
    auto it = booting_.find(token);
    if (it == booting_.end()) return;  // evicted: redistributed with the VM
    workload::Batch pending = std::move(it->second);
    booting_.erase(it);
    if (epoch != epoch_ || !up_) {
      // The node bounced during the boot without flushing this entry
      // (evict() normally clears booting_, so this is a defensive path).
      // The GPU — and the boot reservation with it — is gone; route the
      // batch through the lost path instead of stranding it and its
      // running_ slot.
      pending.reserved_gb = 0.0;
      if (obs::Tracer* t = config_.tracer;
          t != nullptr && t->wants(obs::kSpans)) {
        t->async_end(obs::kSpans, "boot", pending.id,
                     static_cast<int>(id_) + 1, sim_.now(),
                     {{"failed", 1.0}});
      }
      handle_lost(std::move(pending));
      return;
    }
    begin_exec(std::move(pending), slice_id, /*reserved=*/true);
  });
}

const gpu::Slice* WorkerNode::live_slice(std::size_t slot) const noexcept {
  if (!gpu_) return nullptr;
  const auto live = std::as_const(*gpu_).slices();
  return slot < live.size() ? live[slot] : nullptr;
}

gpu::Slice* WorkerNode::find_slice(SliceId slice_id) {
  if (!gpu_) return nullptr;
  for (gpu::Slice* s : gpu_->slices()) {
    if (s->id() == slice_id) return s;
  }
  return nullptr;
}

void WorkerNode::begin_exec(workload::Batch batch, SliceId slice_id,
                            bool reserved) {
  gpu::Slice* slice = find_slice(slice_id);
  const gpu::JobSpec probe =
      slice ? scheduler_.make_job(batch, *slice, next_job_id_) : gpu::JobSpec{};
  if (slice != nullptr && reserved) {
    slice->release_reservation(batch.reserved_gb);
    batch.reserved_gb = 0.0;
  } else if (slice == nullptr && reserved) {
    // The slice — and the reservation held on it — was destroyed
    // (reconfiguration rebuild or ECC fail_slice) while the container
    // booted; zero the charge so a later release can't fire against a
    // recycled slice id.
    batch.reserved_gb = 0.0;
  }
  obs::Tracer* tracer = config_.tracer;
  if (reserved && tracer != nullptr && tracer->wants(obs::kSpans)) {
    tracer->async_end(obs::kSpans, "boot", batch.id,
                      static_cast<int>(id_) + 1, sim_.now());
  }
  if (slice == nullptr || !slice->can_admit(probe)) {
    // The slice vanished (reconfiguration) or filled up; the booted
    // container stays warm and the batch goes back to the queue.
    // ModelCache::release tolerates a destroyed slice id (the pin vanished
    // with the slice's entries), so the ECC mid-boot case is a no-op here.
    if (cache_) cache_->release(slice_id, batch.model);
    auto& pool = pool_for(*batch.model);
    pool.idle_since.push_back(sim_.now());
    --pool.busy;
    --running_;
    batch.cold_start = 0.0;  // already paid; don't double-charge on retry
    batch.weight_load = 0.0;
    if (tracer != nullptr && tracer->wants(obs::kSpans)) {
      tracer->async_begin(obs::kSpans, "queue", batch.id,
                          static_cast<int>(id_) + 1, sim_.now(),
                          {{"requeued", 1.0}});
    }
    insert_by_policy(std::move(batch));
    try_dispatch();
    return;
  }
  const gpu::JobSpec spec = scheduler_.make_job(batch, *slice, next_job_id_++);
  if (tracer != nullptr && tracer->wants(obs::kSpans)) {
    tracer->async_begin(obs::kSpans, "exec", batch.id,
                        static_cast<int>(id_) + 1, sim_.now(),
                        {{"slice", static_cast<double>(slice_id)}});
  }
  batch.exec_start = sim_.now();
  batch.served_on = slice->profile();
  const double fill = batch.work_fraction();
  batch.solo_min = batch.model->solo_time_7g * fill;
  batch.solo_on_slice = batch.model->solo_time_on(slice->profile()) * fill;
  std::uint32_t slot;
  if (in_flight_free_.empty()) {
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.push_back(std::move(batch));
  } else {
    slot = in_flight_free_.back();
    in_flight_free_.pop_back();
    in_flight_[slot] = std::move(batch);
  }
  slice->submit(spec, [this, slot, slice_id](const gpu::JobCompletion& done) {
    workload::Batch finished = std::move(in_flight_[slot]);
    in_flight_free_.push_back(slot);
    if (cache_) cache_->release(slice_id, finished.model);
    on_complete(std::move(finished), done);
  });
}

void WorkerNode::on_complete(workload::Batch batch,
                             const gpu::JobCompletion& done) {
  obs::Tracer* tracer = config_.tracer;
  if (tracer != nullptr && tracer->wants(obs::kSpans)) {
    tracer->async_end(obs::kSpans, "exec", batch.id,
                      static_cast<int>(id_) + 1, sim_.now(),
                      {{"failed", done.failed ? 1.0 : 0.0},
                       {"exec_time", done.exec_time}});
  }
  if (done.failed) {
    handle_lost(std::move(batch));
    return;
  }
  batch.completed_at = done.finished_at;
  batch.exec_time = done.exec_time;
  batch.swap_stall = done.swap_stall;
  PROTEAN_DCHECK(running_ > 0);
  --running_;
  ++batches_served_;
  outstanding_work_ =
      std::max(0.0, outstanding_work_ - batch.model->solo_time_7g);
  notify_load();
  auto& pool = pool_for(*batch.model);
  --pool.busy;
  if (config_.keep_alive > 0.0) pool.idle_since.push_back(sim_.now());
  if (stage_complete_ && batch.flow != 0) {
    // Workflow stage batches take the per-stage path: the runtime accounts
    // components and expands successor stages; the flow's terminal record
    // carries the request latencies.
    stage_complete_(std::move(batch));
  } else {
    collector_.record(batch);
  }
  // try_dispatch fires via the GPU capacity callback right after this.
}

void WorkerNode::handle_lost(workload::Batch batch) {
  PROTEAN_DCHECK(running_ > 0);
  if (running_ > 0) --running_;
  outstanding_work_ =
      std::max(0.0, outstanding_work_ - batch.model->solo_time_7g);
  notify_load();
  auto& pool = pool_for(*batch.model);
  if (pool.busy > 0) --pool.busy;
  // On a surviving node (ECC slice loss) the container itself is fine and
  // goes back to the warm pool; on a dead node it died with the VM.
  if (up_ && config_.keep_alive > 0.0) pool.idle_since.push_back(sim_.now());
  ++lost_batches_;
  if (obs::Tracer* t = config_.tracer;
      t != nullptr && t->wants(obs::kSpans)) {
    t->instant(obs::kSpans, "lost", static_cast<int>(id_) + 1,
               {{"batch", static_cast<double>(batch.id)},
                {"strict", batch.strict ? 1.0 : 0.0}});
  }
  // Reset service-side fields so a retry accounts from scratch. (The
  // cumulative attribution lanes — retry_overhead, reconfig_blackout —
  // survive on purpose: the retry accrual charges the lost wall time.)
  batch.cold_start = 0.0;
  batch.weight_load = 0.0;
  batch.swap_stall = 0.0;
  batch.reserved_gb = 0.0;
  batch.exec_start = 0.0;
  batch.completed_at = 0.0;
  batch.exec_time = 0.0;
  if (lost_handler_) {
    lost_handler_(std::move(batch));
    return;
  }
  // No resilience layer installed: legacy dropped-work accounting.
  ++dropped_jobs_;
  collector_.record_dropped(batch.strict, batch.count);
}

void WorkerNode::reap_containers() {
  const SimTime now = sim_.now();
  for (ContainerPool& pool : containers_) {
    while (!pool.idle_since.empty() &&
           now - pool.idle_since.front() > config_.keep_alive) {
      pool.idle_since.pop_front();
    }
  }
}

int WorkerNode::warm_containers() const noexcept {
  int total = 0;
  for (const ContainerPool& pool : containers_) total += pool.warm();
  return total;
}

bool WorkerNode::begin_reconfigure(const gpu::Geometry& target) {
  if (!gpu_ || gpu_->reconfiguring()) return false;
  // A degraded HBM region blocks repartitioning until the ECC repair runs.
  if (ecc_degraded_) return false;
  if (!gpu_->request_reconfigure(target)) return false;
  // The GPU may have just started draining: refresh the dispatcher's ready
  // index before the queue flush below routes batches through it.
  notify_load();
  // Only flush the queue when the GPU actually went down for a drain: a
  // no-op request (already in the target geometry) and a soft in-place
  // repartition leave the node serving, and redistributing queued batches
  // on those paths would churn work that never had to move.
  if (redistribute_ && gpu_->reconfiguring()) {
    for (workload::Batch& b : take_queue()) redistribute_(std::move(b));
  }
  return true;
}

bool WorkerNode::inject_ecc(double selector) {
  if (!up_ || !gpu_ || gpu_->reconfiguring() || ecc_degraded_) return false;
  const auto live = gpu_->slices();
  if (live.size() <= 1) return false;  // can't heal around the only slice
  healthy_geometry_ = gpu_->geometry();
  const auto pick = std::min(
      live.size() - 1,
      static_cast<std::size_t>(selector * static_cast<double>(live.size())));
  const SliceId victim = live[pick]->id();
  if (!gpu_->fail_slice(victim)) return false;
  ecc_degraded_ = true;
  maybe_sync_cache();
  schedule_ecc_heal(config_.fault.ecc_repair_delay);
  try_dispatch();
  return true;
}

void WorkerNode::schedule_ecc_heal(Duration delay) {
  const std::uint64_t epoch = epoch_;
  sim_.schedule_after(delay, [this, epoch] {
    if (epoch != epoch_ || !up_) return;  // the VM died; restore() heals
    ecc_degraded_ = false;
    if (!gpu_ || gpu_->geometry() == healthy_geometry_) return;
    // The repair itself is a normal ~2 s reconfiguration; retry shortly if
    // the GPU is mid-reconfig right now.
    if (!begin_reconfigure(healthy_geometry_)) schedule_ecc_heal(1.0);
  });
}

std::vector<workload::Batch> WorkerNode::take_queue() {
  std::vector<workload::Batch> flushed(
      std::make_move_iterator(queue_.begin()),
      std::make_move_iterator(queue_.end()));
  queue_.clear();
  ++queue_version_;
  obs::Tracer* tracer = config_.tracer;
  for (workload::Batch& b : flushed) {
    close_blackout_sample(b);
    outstanding_work_ =
        std::max(0.0, outstanding_work_ - b.model->solo_time_7g);
    if (tracer != nullptr && tracer->wants(obs::kSpans)) {
      // Batches leave this node's queue; redistribution re-opens the span
      // wherever they land next.
      tracer->async_end(obs::kSpans, "queue", b.id,
                        static_cast<int>(id_) + 1, sim_.now(),
                        {{"flushed", 1.0}});
    }
  }
  if (!flushed.empty()) notify_load();
  return flushed;
}

std::vector<workload::Batch> WorkerNode::evict() {
  up_ = false;
  draining_ = false;
  ++epoch_;
  std::vector<workload::Batch> flushed(
      std::make_move_iterator(queue_.begin()),
      std::make_move_iterator(queue_.end()));
  queue_.clear();
  ++queue_version_;
  obs::Tracer* tracer = config_.tracer;
  for (workload::Batch& b : flushed) close_blackout_sample(b);
  if (tracer != nullptr && tracer->wants(obs::kSpans)) {
    for (const workload::Batch& b : flushed) {
      tracer->async_end(obs::kSpans, "queue", b.id,
                        static_cast<int>(id_) + 1, sim_.now(),
                        {{"evicted", 1.0}});
    }
  }
  // Batches whose containers were still booting never reached the GPU:
  // they move to another node (their cold-start charge resets).
  for (auto& [token, batch] : booting_) {
    batch.cold_start = 0.0;
    batch.weight_load = 0.0;
    batch.reserved_gb = 0.0;  // the reservation dies with the GPU below
    PROTEAN_DCHECK(running_ > 0);
    --running_;
    if (tracer != nullptr && tracer->wants(obs::kSpans)) {
      tracer->async_end(obs::kSpans, "boot", batch.id,
                        static_cast<int>(id_) + 1, sim_.now(),
                        {{"evicted", 1.0}});
    }
    flushed.push_back(std::move(batch));
  }
  booting_.clear();
  // With the resilience layer installed, jobs still on the GPU are aborted
  // through the lost-batch path (each exactly once) so the cluster can
  // retry them; handle_lost unwinds running_/containers_ per batch.
  if (lost_handler_ && gpu_) gpu_->abort_all_jobs();
  // Jobs still on the GPU at eviction are lost; the paper's drain window
  // (>=30 s notice vs <1 s jobs) makes this rare.
  if (running_ > 0) {
    dropped_jobs_ += running_;
    // Strictness composition of in-flight jobs is not tracked per job; the
    // conservative choice is to count them as strict misses.
    collector_.record_dropped(/*strict=*/true, static_cast<int>(running_));
    running_ = 0;
  }
  outstanding_work_ = 0.0;
  containers_.clear();
  if (gpu_) {
    gpu_busy_retired_ += gpu_->busy_seconds();
    gpu_mem_retired_ += gpu_->memory_gb_seconds();
    swap_stall_retired_ += gpu_->swap_stall_seconds();
    reconfigs_retired_ += gpu_->reconfigurations();
    failed_reconfigs_retired_ += gpu_->failed_reconfigurations();
  }
  gpu_.reset();  // cancels all pending completions
  // Whatever the abort above did not hand back died unrun with the GPU.
  in_flight_.clear();
  in_flight_free_.clear();
  // The cached slice pointers died with the GPU; a replacement GPU restarts
  // topology numbering at 0, so an explicit reset is required for safety.
  sorted_slices_.clear();
  sorted_topology_ = -1;
  ecc_degraded_ = false;  // the bad HBM died with the VM
  if (cache_) {
    cache_->reset();  // device memory is gone with the VM
    synced_topology_ = -1;
  }
  notify_load();
  return flushed;
}

void WorkerNode::restore() {
  PROTEAN_CHECK_MSG(!up_, "restore on a live node");
  up_ = true;
  draining_ = false;
  ++epoch_;
  gpu_ = make_gpu();
  gpu_->set_capacity_callback([this] { on_gpu_capacity(); });
  ++queue_version_;  // the fresh GPU restarts its state_version()
  install_reconfig_fault_hook();
  sorted_slices_.clear();
  sorted_topology_ = -1;
  maybe_sync_cache();
  notify_load();
  try_dispatch();
}

const std::vector<gpu::Slice*>& WorkerNode::sorted_slices() {
  static const std::vector<gpu::Slice*> kNoSlices;
  if (!gpu_ || gpu_->reconfiguring()) return kNoSlices;
  if (gpu_->topology_version() != sorted_topology_) {
    const auto live = gpu_->slices();
    sorted_slices_.assign(live.begin(), live.end());
    std::sort(sorted_slices_.begin(), sorted_slices_.end(),
              gpu::slice_order_ascending);
    sorted_topology_ = gpu_->topology_version();
  }
  return sorted_slices_;
}

}  // namespace protean::cluster
