#include "gpu/engine.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <string>

#include "obs/trace.h"

namespace protean::gpu {

namespace {
constexpr double kWorkEpsilon = 1e-12;
}

double mps_slowdown(double pressure, const InterferenceParams& params) noexcept {
  const double base = std::max(pressure, 1.0);
  const double excess = std::max(0.0, pressure - params.thrash_knee);
  return base + params.thrash_gamma * excess * excess;
}

// ---------------------------------------------------------------- Slice ----

Slice::Slice(sim::Simulator& simulator, Gpu* owner, SliceId id,
             SliceProfile profile, SharingMode mode,
             InterferenceParams interference, MemGb gpu_memory_gb,
             bool shared_weights, SoftParams soft)
    : sim_(simulator),
      owner_(owner),
      id_(id),
      profile_(profile),
      mode_(mode),
      interference_(interference),
      soft_(soft),
      mem_capacity_(memory_gb(profile) * (gpu_memory_gb / 40.0)),
      shared_weights_(shared_weights),
      last_update_(simulator.now()),
      util_last_update_(simulator.now()) {
  if (obs::Tracer* t = tracer(); t != nullptr && t->wants(obs::kSpans)) {
    t->thread_name(trace_pid(), static_cast<int>(id_),
                   "slice " + std::to_string(id_) + " (" +
                       traits(profile_).name + ")");
  }
}

Slice::~Slice() {
  // A slice destroyed while running (node eviction resets the whole GPU)
  // still owns an open busy interval; flush it so trace replay accounts the
  // same busy time the integrals did.
  if (!jobs_.empty()) trace_busy_close();
  sim_.cancel(completion_event_);
}

obs::Tracer* Slice::tracer() const noexcept {
  return owner_ != nullptr ? owner_->tracer_ : nullptr;
}

void Slice::touch_owner() noexcept {
  if (owner_ != nullptr) ++owner_->state_version_;
}

int Slice::trace_pid() const noexcept {
  return owner_ != nullptr ? static_cast<int>(owner_->id_) + 1 : 0;
}

void Slice::trace_busy_close() {
  obs::Tracer* t = tracer();
  if (t == nullptr || !t->wants(obs::kSpans)) return;
  t->complete(obs::kSpans, "busy", trace_pid(), static_cast<int>(id_),
              busy_since_, sim_.now());
}

void Slice::trace_counters() {
  obs::Tracer* t = tracer();
  if (t == nullptr || !t->wants(obs::kCounters)) return;
  const double p = pressure();
  const double s = current_slowdown();
  const MemGb m = memory_in_use();
  const int r = reservation_count_;
  if (p == trace_pressure_ && s == trace_slowdown_ && m == trace_mem_ &&
      r == trace_reservations_) {
    return;
  }
  trace_pressure_ = p;
  trace_slowdown_ = s;
  trace_mem_ = m;
  trace_reservations_ = r;
  t->counter(obs::kCounters, "s" + std::to_string(id_), trace_pid(),
             {{"pressure", p},
              {"slowdown", s},
              {"mem_gb", m},
              {"reservations", static_cast<double>(r)}});
}

MemGb Slice::admission_demand(const JobSpec& spec) const noexcept {
  if (!shared_weights_ || spec.weight_gb <= 0.0) return spec.mem_gb;
  const MemGb weight = std::min(spec.weight_gb, spec.mem_gb);
  const auto it = weight_refs_.find(spec.model_tag);
  const bool charged = it != weight_refs_.end() && it->second.count > 0;
  return charged ? spec.mem_gb - weight : spec.mem_gb;
}

bool Slice::can_admit(const JobSpec& spec) const noexcept {
  if (!accepting_) return false;
  if (admission_demand(spec) > available_memory() + 1e-9) return false;
  if (mode_ == SharingMode::kTimeShare && !jobs_.empty()) return false;
  return true;
}

double Slice::pressure() const noexcept { return std::max(fbr_sum_, sm_sum_); }

double Slice::soft_swap_factor() const noexcept {
  if (mode_ != SharingMode::kSoftSlice) return 1.0;
  const MemGb used = mem_in_use_ + weight_charged_gb_ + reserved_gb_;
  const double over = used / mem_capacity_ - 1.0;
  return over > 0.0 ? 1.0 + soft_.swap_penalty * over : 1.0;
}

double Slice::current_slowdown() const noexcept {
  if (mode_ == SharingMode::kTimeShare) return swap_factor_;
  if (mode_ == SharingMode::kSoftSlice) {
    if (soft_.time_slice) {
      // nvshare-style exclusive windows: the whole GPU round-robins its
      // resident jobs, each handoff costing a switch_overhead fraction.
      const double n = static_cast<double>(std::max<std::size_t>(gpu_jobs_, 1));
      const double overhead =
          gpu_jobs_ > 1 ? 1.0 + soft_.switch_overhead * (n - 1.0) : 1.0;
      return n * overhead * total_swap_factor();
    }
    // Fractional slicing: software throttles are statistical, so a
    // cross_penalty share of sibling-slice pressure leaks in on top of the
    // slice's own Eq. 1 contention.
    const double leaked = pressure() + soft_.cross_penalty * external_pressure_;
    return mps_slowdown(leaked, interference_) * total_swap_factor();
  }
  return mps_slowdown(pressure(), interference_) * swap_factor_;
}

double Slice::job_rate(const Running& job) const noexcept {
  if (mode_ == SharingMode::kTimeShare) return 1.0 / swap_factor_;
  if (mode_ == SharingMode::kSoftSlice && soft_.time_slice) {
    // Every resident job advances at the round-robin fluid rate; solo
    // pressure is irrelevant inside an exclusive window.
    return 1.0 / current_slowdown();
  }
  return std::min(1.0, job.solo_slowdown / current_slowdown());
}

double Slice::job_rate_noswap(const Running& job) const noexcept {
  const double swap = total_swap_factor();
  if (swap <= 1.0) return job_rate(job);
  if (mode_ == SharingMode::kTimeShare) return 1.0;
  if (mode_ == SharingMode::kSoftSlice && soft_.time_slice) {
    return swap / current_slowdown();
  }
  // Removing the swap factor can lift the job back to its solo ceiling but
  // never beyond rate 1 — mirrors job_rate()'s min(1, ·) clamp, so the
  // no-swap rate is always >= the actual rate and the stall accrual is >= 0.
  return std::min(1.0, job.solo_slowdown * swap / current_slowdown());
}

void Slice::submit(const JobSpec& spec, CompletionCallback on_done) {
  PROTEAN_CHECK_MSG(can_admit(spec), "submit() without can_admit()");
  PROTEAN_CHECK_MSG(spec.solo_time > 0.0, "job with non-positive solo time");
  settle();
  const bool was_idle = jobs_.empty();
  const double solo_slowdown =
      mps_slowdown(std::max(spec.fbr, spec.sm_share), interference_);
  Duration work = spec.solo_time;
  if (mode_ == SharingMode::kTimeShare && spec.model_tag != last_model_tag_) {
    // Switching to a different workload's container costs a context swap.
    work += interference_.timeshare_overhead;
  }
  if (mode_ == SharingMode::kTimeShare) last_model_tag_ = spec.model_tag;
  jobs_.push_back(
      Running{spec, work, solo_slowdown, sim_.now(), 0.0, std::move(on_done)});
  MemGb charge = spec.mem_gb;
  if (shared_weights_ && spec.weight_gb > 0.0) {
    const MemGb weight = std::min(spec.weight_gb, spec.mem_gb);
    charge = spec.mem_gb - weight;
    WeightRef& ref = weight_refs_[spec.model_tag];
    if (ref.count == 0) {
      ref.gb = weight;
      weight_charged_gb_ += weight;
    }
    ++ref.count;
  }
  mem_in_use_ += charge;
  if (!spec.strict) be_mem_in_use_ += charge;
  fbr_sum_ += spec.fbr;
  sm_sum_ += spec.sm_share;
  touch_owner();
  if (was_idle) {
    busy_since_ = sim_.now();
    if (owner_ != nullptr) owner_->on_slice_activity_change(true);
  }
  reschedule_completion();
  trace_counters();
  if (mode_ == SharingMode::kSoftSlice && owner_ != nullptr) {
    owner_->soft_resettle();
  }
}

void Slice::settle() {
  const SimTime now = sim_.now();
  const Duration elapsed = now - last_update_;
  if (elapsed > 0.0 && !jobs_.empty()) {
    const double swap = total_swap_factor();
    for (Running& job : jobs_) {
      const double rate = job_rate(job);
      job.remaining_work = std::max(0.0, job.remaining_work - elapsed * rate);
      if (swap > 1.0) {
        // Per-job share of the swap stall: the fraction of this interval
        // the job lost versus running at its swap-free rate. Sums across
        // settles to the job's exec-time inflation from oversubscription.
        const double rate_ns = job_rate_noswap(job);
        if (rate_ns > rate) {
          job.swap_stall += elapsed * (1.0 - rate / rate_ns);
        }
      }
    }
  }
  // Utilization integrals.
  const Duration util_elapsed = now - util_last_update_;
  if (util_elapsed > 0.0) {
    if (!jobs_.empty()) {
      busy_integral_ += util_elapsed;
      const double swap = total_swap_factor();
      if (swap > 1.0) {
        swap_stall_integral_ += util_elapsed * (1.0 - 1.0 / swap);
      }
    }
    mem_integral_ += util_elapsed * (mem_in_use_ + weight_charged_gb_);
  }
  last_update_ = now;
  util_last_update_ = now;
}

void Slice::reschedule_completion() {
  sim_.cancel(completion_event_);
  completion_event_ = sim::EventHandle();
  if (jobs_.empty()) return;
  double eta = std::numeric_limits<double>::infinity();
  for (const Running& job : jobs_) {
    eta = std::min(eta, std::max(0.0, job.remaining_work) / job_rate(job));
  }
  completion_event_ = sim_.schedule_after(eta, [this] {
    completion_event_ = sim::EventHandle();
    settle();
    complete_front_runner();
  });
}

void Slice::complete_front_runner() {
  // Complete every job whose work has drained (ties complete together).
  // The list borrows the member buffer by swap, so a callback re-entering
  // this slice finds an empty scratch of its own.
  std::vector<Running> done;
  done.swap(done_scratch_);
  for (auto it = jobs_.begin(); it != jobs_.end();) {
    if (it->remaining_work <= kWorkEpsilon) {
      done.push_back(std::move(*it));
      it = jobs_.erase(it);
    } else {
      ++it;
    }
  }
  PROTEAN_DCHECK(!done.empty());
  for (Running& job : done) {
    MemGb charge = job.spec.mem_gb;
    if (shared_weights_ && job.spec.weight_gb > 0.0) {
      const MemGb weight = std::min(job.spec.weight_gb, job.spec.mem_gb);
      charge = job.spec.mem_gb - weight;
      auto ref = weight_refs_.find(job.spec.model_tag);
      PROTEAN_DCHECK(ref != weight_refs_.end() && ref->second.count > 0);
      if (ref != weight_refs_.end() && --ref->second.count == 0) {
        weight_charged_gb_ -= ref->second.gb;
        weight_refs_.erase(ref);
      }
    }
    mem_in_use_ -= charge;
    if (!job.spec.strict) be_mem_in_use_ -= charge;
    fbr_sum_ -= job.spec.fbr;
    sm_sum_ -= job.spec.sm_share;
  }
  // Guard against floating-point drift.
  if (jobs_.empty()) {
    mem_in_use_ = 0.0;
    be_mem_in_use_ = 0.0;
    fbr_sum_ = 0.0;
    sm_sum_ = 0.0;
    if (weight_refs_.empty()) weight_charged_gb_ = 0.0;
  } else {
    mem_in_use_ = std::max(0.0, mem_in_use_);
    be_mem_in_use_ = std::max(0.0, be_mem_in_use_);
    fbr_sum_ = std::max(0.0, fbr_sum_);
    sm_sum_ = std::max(0.0, sm_sum_);
  }
  touch_owner();
  const bool now_idle = jobs_.empty();
  reschedule_completion();
  // The idle transition must land *before* the completion callbacks: a
  // callback may resubmit to this very slice (re-marking it busy) or kick
  // off a drain, and applying the stale `now_idle` afterwards would count
  // the slice idle while it runs the resubmitted job — undercounting
  // Gpu::busy_seconds() and splicing its trace busy spans.
  if (now_idle) {
    trace_busy_close();
    if (owner_ != nullptr) owner_->on_slice_activity_change(false);
  }
  trace_counters();
  if (mode_ == SharingMode::kSoftSlice && owner_ != nullptr) {
    owner_->soft_resettle();
  }
  for (Running& job : done) {
    JobCompletion completion;
    completion.id = job.spec.id;
    completion.started_at = job.started_at;
    completion.finished_at = sim_.now();
    completion.exec_time = sim_.now() - job.started_at;
    completion.solo_time = job.spec.solo_time;
    completion.swap_stall = job.swap_stall;
    if (job.on_done) job.on_done(completion);
  }
  done.clear();
  done_scratch_.swap(done);
  if (owner_ != nullptr) owner_->on_job_complete();
}

std::size_t Slice::abort_jobs() {
  settle();
  sim_.cancel(completion_event_);
  completion_event_ = sim::EventHandle();
  if (jobs_.empty()) return 0;
  std::vector<Running> lost;
  lost.swap(jobs_);
  mem_in_use_ = 0.0;
  be_mem_in_use_ = 0.0;
  fbr_sum_ = 0.0;
  sm_sum_ = 0.0;
  weight_refs_.clear();
  weight_charged_gb_ = 0.0;
  touch_owner();
  // The container died with its jobs: the next time-share submit of the
  // same model must boot a fresh context and pay the swap overhead again.
  last_model_tag_ = nullptr;
  trace_busy_close();
  if (owner_ != nullptr) owner_->on_slice_activity_change(false);
  trace_counters();
  if (mode_ == SharingMode::kSoftSlice && owner_ != nullptr) {
    owner_->soft_resettle();
  }
  for (Running& job : lost) {
    JobCompletion completion;
    completion.id = job.spec.id;
    completion.started_at = job.started_at;
    completion.finished_at = sim_.now();
    completion.exec_time = sim_.now() - job.started_at;
    completion.solo_time = job.spec.solo_time;
    completion.swap_stall = job.swap_stall;
    completion.failed = true;
    if (job.on_done) job.on_done(completion);
  }
  return lost.size();
}

std::size_t Slice::strict_jobs() const noexcept {
  std::size_t count = 0;
  for (const Running& job : jobs_) {
    if (job.spec.strict) ++count;
  }
  return count;
}

void Slice::reserve_memory(MemGb gb) {
  PROTEAN_CHECK_MSG(gb <= available_memory() + 1e-9,
                    "reservation exceeds free memory");
  settle();
  reserved_gb_ += gb;
  ++reservation_count_;
  touch_owner();
  trace_counters();
  // Reservations count against the soft oversubscription budget, so the
  // swap factor (and with it every co-resident job's rate) just moved.
  if (mode_ == SharingMode::kSoftSlice && owner_ != nullptr) {
    owner_->soft_resettle();
  }
}

void Slice::release_reservation(MemGb gb) {
  PROTEAN_CHECK_MSG(reservation_count_ > 0, "no reservation to release");
  PROTEAN_CHECK_MSG(gb <= reserved_gb_ + 1e-9, "releasing more than reserved");
  settle();
  reserved_gb_ = std::max(0.0, reserved_gb_ - gb);
  --reservation_count_;
  if (reservation_count_ == 0) reserved_gb_ = 0.0;
  touch_owner();
  trace_counters();
  if (mode_ == SharingMode::kSoftSlice && owner_ != nullptr) {
    owner_->soft_resettle();
  }
  if (owner_ != nullptr) owner_->on_job_complete();  // may unblock a drain
}

void Slice::clear_reservations() {
  if (reservation_count_ == 0) return;
  settle();
  reserved_gb_ = 0.0;
  reservation_count_ = 0;
  touch_owner();
  trace_counters();
  if (mode_ == SharingMode::kSoftSlice && owner_ != nullptr) {
    owner_->soft_resettle();
  }
}

void Slice::set_swap_slowdown(double factor) {
  PROTEAN_CHECK_MSG(factor >= 1.0, "swap slowdown below 1");
  if (factor == swap_factor_) return;
  settle();
  swap_factor_ = factor;
  reschedule_completion();
  trace_counters();
}

double Slice::swap_stall_seconds() const noexcept {
  double total = swap_stall_integral_;
  const double swap = total_swap_factor();
  if (!jobs_.empty() && swap > 1.0) {
    total += (sim_.now() - util_last_update_) * (1.0 - 1.0 / swap);
  }
  return total;
}

double Slice::busy_seconds() const noexcept {
  double total = busy_integral_;
  if (!jobs_.empty()) total += sim_.now() - util_last_update_;
  return total;
}

double Slice::memory_gb_seconds() const noexcept {
  return mem_integral_ + (sim_.now() - util_last_update_) *
                             (mem_in_use_ + weight_charged_gb_);
}

// ------------------------------------------------------------------ Gpu ----

Gpu::Gpu(sim::Simulator& simulator, GpuId id, Geometry geometry,
         SharingMode mode, Duration reconfigure_time,
         InterferenceParams interference, MemGb memory_gb, bool shared_weights,
         obs::Tracer* tracer, SoftParams soft)
    : sim_(simulator),
      id_(id),
      geometry_(std::move(geometry)),
      mode_(mode),
      reconfigure_time_(reconfigure_time),
      interference_(interference),
      soft_(soft),
      memory_gb_(memory_gb),
      shared_weights_(shared_weights),
      tracer_(tracer),
      busy_last_update_(simulator.now()) {
  PROTEAN_CHECK_MSG(geometry_.valid(), "invalid initial geometry");
  PROTEAN_CHECK_MSG(memory_gb_ > 0.0, "GPU memory must be positive");
  build_slices();
  refresh_live();
}

Gpu::~Gpu() {
  // The GPU can be destroyed mid-reconfiguration (a crash or spot kill
  // retiring the VM); the pending downtime-complete event must not fire
  // into freed memory.
  sim_.cancel(reconfig_event_);
  sim_.cancel(reap_event_);
}

void Gpu::build_slices() {
  // Preserve utilization integrals of slices about to be destroyed.
  for (const auto& s : slices_) {
    mem_integral_retired_ += s->memory_gb_seconds();
    swap_stall_retired_ += s->swap_stall_seconds();
  }
  slices_.clear();
  slices_.reserve(geometry_.size());
  for (SliceProfile profile : geometry_.slices()) {
    slices_.push_back(std::make_unique<Slice>(
        sim_, this, next_slice_id_++, profile, mode_, interference_,
        memory_gb_, shared_weights_, soft_));
  }
}

void Gpu::set_state(State state) {
  state_ = state;
  refresh_live();
}

void Gpu::refresh_live() {
  live_.clear();
  if (state_ == State::kReady || state_ == State::kDraining) {
    for (auto& s : slices_) live_.push_back(s.get());
  }
  ++state_version_;
}

bool Gpu::request_reconfigure(const Geometry& target,
                              std::function<void()> on_done) {
  PROTEAN_CHECK_MSG(target.valid(), "invalid target geometry");
  if (mode_ == SharingMode::kSoftSlice) {
    return soft_reconfigure(target, std::move(on_done));
  }
  if (state_ != State::kReady) return false;
  if (target == geometry_) {
    if (on_done) on_done();
    return true;
  }
  target_geometry_ = target;
  reconfig_done_ = std::move(on_done);
  set_state(State::kDraining);
  for (auto& s : slices_) s->set_accepting(false);
  maybe_finish_drain();
  return true;
}

void Gpu::maybe_finish_drain() {
  if (state_ != State::kDraining) return;
  for (auto& s : slices_) {
    if (!s->idle() || s->reservations() > 0) return;
  }
  // All drained: take the MIG downtime, then swap the geometry. A failed
  // attempt (injected fault) pays a longer downtime and comes back with the
  // old layout; the caller's reconfigurator retries on a later tick.
  set_state(State::kDown);
  down_since_ = sim_.now();
  const bool fault = reconfig_should_fail_ && reconfig_should_fail_();
  const Duration downtime =
      fault ? reconfigure_time_ * kReconfigFailMultiplier : reconfigure_time_;
  reconfig_event_ = sim_.schedule_after(downtime, [this, fault, downtime] {
    reconfig_event_ = sim::EventHandle();
    completed_downtime_ += downtime;
    if (tracer_ != nullptr && tracer_->wants(obs::kSpans)) {
      // Emitted at completion so the span carries its real extent; tid 999
      // keeps the downtime lane clear of the per-slice busy lanes.
      tracer_->thread_name(static_cast<int>(id_) + 1, 999, "reconfig");
      tracer_->complete(obs::kSpans, "reconfigure", static_cast<int>(id_) + 1,
                        999, sim_.now() - downtime, sim_.now(),
                        {{"ok", fault ? 0.0 : 1.0},
                         {"geometry", fault ? geometry_.to_string()
                                            : target_geometry_.to_string()}});
    }
    if (fault) {
      build_slices();
      set_state(State::kReady);
      ++failed_reconfig_count_;
      ++topology_version_;
      reconfig_done_ = nullptr;
      if (on_capacity_) on_capacity_();
      return;
    }
    geometry_ = target_geometry_;
    build_slices();
    set_state(State::kReady);
    ++reconfig_count_;
    ++topology_version_;
    auto done = std::move(reconfig_done_);
    reconfig_done_ = nullptr;
    if (done) done();
    if (on_capacity_) on_capacity_();
  });
}

bool Gpu::soft_reconfigure(const Geometry& target,
                           std::function<void()> on_done) {
  if (target == geometry_) {
    if (on_done) on_done();
    return true;
  }
  // Supersede the current slices in place — no drain, no downtime. Idle
  // slices retire immediately; busy ones keep running (and contending, via
  // soft_resettle's whole-GPU coordination) until their jobs drain. Boot
  // reservations die with the superseded slice: the node re-queues those
  // batches when it can no longer find the slice id.
  for (auto& s : slices_) {
    s->set_accepting(false);
    s->clear_reservations();
    if (s->idle()) {
      mem_integral_retired_ += s->memory_gb_seconds();
      swap_stall_retired_ += s->swap_stall_seconds();
    } else {
      retiring_.push_back(std::move(s));
    }
  }
  slices_.clear();
  geometry_ = target;
  slices_.reserve(geometry_.size());
  for (SliceProfile profile : geometry_.slices()) {
    slices_.push_back(std::make_unique<Slice>(
        sim_, this, next_slice_id_++, profile, mode_, interference_,
        memory_gb_, shared_weights_, soft_));
  }
  refresh_live();
  ++reconfig_count_;
  ++topology_version_;
  if (tracer_ != nullptr && tracer_->wants(obs::kSpans)) {
    tracer_->instant(obs::kSpans, "soft_reconfigure", static_cast<int>(id_) + 1,
                     {{"geometry", geometry_.to_string()}});
  }
  soft_resettle();
  if (on_done) on_done();
  if (on_capacity_) on_capacity_();
  return true;
}

void Gpu::soft_resettle() {
  if (mode_ != SharingMode::kSoftSlice || soft_resettling_) return;
  soft_resettling_ = true;
  const auto visit = [this](auto&& fn) {
    for (auto& s : slices_) fn(*s);
    for (auto& s : retiring_) fn(*s);
  };
  // Phase 1: charge elapsed time on every slice — live and retiring — at
  // the rates implied by the *old* coordination state before publishing the
  // new one; otherwise past progress would be rewritten at future rates.
  double pressure_sum = 0.0;
  std::size_t total_jobs = 0;
  visit([&](Slice& s) {
    s.settle();
    pressure_sum += s.pressure();
    total_jobs += s.jobs_.size();
  });
  // Phase 2: publish the whole-GPU view and reschedule at the new rates.
  visit([&](Slice& s) {
    s.gpu_jobs_ = total_jobs;
    s.external_pressure_ = std::max(0.0, pressure_sum - s.pressure());
    s.reschedule_completion();
    s.trace_counters();
  });
  soft_resettling_ = false;
}

void Gpu::reap_retired() {
  for (auto it = retiring_.begin(); it != retiring_.end();) {
    if ((*it)->idle()) {
      mem_integral_retired_ += (*it)->memory_gb_seconds();
      swap_stall_retired_ += (*it)->swap_stall_seconds();
      it = retiring_.erase(it);
    } else {
      ++it;
    }
  }
}

std::size_t Gpu::abort_all_jobs() {
  std::size_t lost = 0;
  for (auto& s : slices_) lost += s->abort_jobs();
  for (auto& s : retiring_) lost += s->abort_jobs();
  // Aborted retiring slices are idle and off their own callstack here.
  reap_retired();
  return lost;
}

bool Gpu::fail_slice(SliceId id) {
  if (state_ != State::kReady) return false;
  if (slices_.size() <= 1) return false;
  auto it = std::find_if(slices_.begin(), slices_.end(),
                         [id](const auto& s) { return s->id() == id; });
  if (it == slices_.end()) return false;
  Slice& victim = **it;
  victim.abort_jobs();
  victim.set_accepting(false);
  // An ECC hit mid-boot can land while a container holds a memory
  // reservation on the victim; the reservation dies with the slice, and
  // must not keep a concurrent drain waiting on a slice that no longer
  // exists (maybe_finish_drain only scans live slices, but the count must
  // not linger if the victim is ever inspected before erase).
  victim.clear_reservations();
  if (tracer_ != nullptr && tracer_->wants(obs::kSpans)) {
    tracer_->instant(obs::kSpans, "slice_failed", static_cast<int>(id_) + 1,
                     {{"slice", static_cast<double>(id)}});
  }
  // Retire the dead slice's integrals, as reconfiguration does.
  mem_integral_retired_ += victim.memory_gb_seconds();
  swap_stall_retired_ += victim.swap_stall_seconds();
  // The geometry heals around the lost slice: drop one matching profile.
  std::vector<SliceProfile> remaining = geometry_.slices();
  auto profile_it =
      std::find(remaining.begin(), remaining.end(), victim.profile());
  PROTEAN_DCHECK(profile_it != remaining.end());
  if (profile_it != remaining.end()) remaining.erase(profile_it);
  geometry_ = Geometry(std::move(remaining));
  slices_.erase(it);
  refresh_live();
  ++topology_version_;
  if (on_capacity_) on_capacity_();
  return true;
}

void Gpu::on_slice_activity_change(bool became_busy) {
  const SimTime now = sim_.now();
  if (busy_slices_ > 0) busy_integral_ += now - busy_last_update_;
  busy_last_update_ = now;
  busy_slices_ += became_busy ? 1 : -1;
  PROTEAN_DCHECK(busy_slices_ >= 0);
}

void Gpu::on_job_complete() {
  if (!retiring_.empty() && !reap_scheduled_) {
    // A retiring slice may have just gone idle inside one of its own member
    // functions; destroying it here would free the object whose method is
    // still on the stack. Reap on a deferred zero-delay event instead.
    reap_scheduled_ = true;
    reap_event_ = sim_.schedule_after(0.0, [this] {
      reap_event_ = sim::EventHandle();
      reap_scheduled_ = false;
      reap_retired();
    });
  }
  maybe_finish_drain();
  if (on_capacity_) on_capacity_();
}

double Gpu::busy_seconds() const noexcept {
  double total = busy_integral_;
  if (busy_slices_ > 0) total += sim_.now() - busy_last_update_;
  return total;
}

double Gpu::memory_gb_seconds() const noexcept {
  double total = mem_integral_retired_;
  for (const auto& s : slices_) total += s->memory_gb_seconds();
  for (const auto& s : retiring_) total += s->memory_gb_seconds();
  return total;
}

double Gpu::swap_stall_seconds() const noexcept {
  double total = swap_stall_retired_;
  for (const auto& s : slices_) total += s->swap_stall_seconds();
  for (const auto& s : retiring_) total += s->swap_stall_seconds();
  return total;
}

double Gpu::downtime_seconds() const noexcept {
  double total = completed_downtime_;
  if (state_ == State::kDown) total += sim_.now() - down_since_;
  return total;
}

MemGb Gpu::resident_gb() const noexcept {
  MemGb total = 0.0;
  for (const auto& s : slices_) total += s->memory_in_use();
  for (const auto& s : retiring_) total += s->memory_in_use();
  return total;
}

double Gpu::max_pressure() const noexcept {
  double peak = 0.0;
  for (const auto& s : slices_) peak = std::max(peak, s->pressure());
  for (const auto& s : retiring_) peak = std::max(peak, s->pressure());
  return peak;
}

double Gpu::max_slowdown() const noexcept {
  double peak = slices_.empty() ? 0.0 : 1.0;
  for (const auto& s : slices_) peak = std::max(peak, s->current_slowdown());
  for (const auto& s : retiring_) {
    peak = std::max(peak, s->current_slowdown());
  }
  return peak;
}

}  // namespace protean::gpu
