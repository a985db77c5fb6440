// GPU execution engine.
//
// Simulates job execution on MIG slices under three sharing modes:
//
//  * kTimeShare — one job at a time per slice (Molecule-beta / MIG-only);
//    a job runs for exactly its solo time.
//  * kSoftSlice — software-defined slicing (src/softgpu): partitions are
//    arbitrary memory/SM fractions enforced in software (HAMi-core-style
//    caps and throttles), not hardware MIG instances. Admission may
//    oversubscribe slice memory up to `SoftParams::mem_oversub` at an
//    nvshare-style swap slowdown, isolation is statistical (sibling-slice
//    pressure leaks in scaled by `SoftParams::cross_penalty`), and
//    geometry changes are applied in place with zero downtime. An
//    alternative time-slicing discipline (`SoftParams::time_slice`) hands
//    the whole GPU around in exclusive windows instead.
//  * kMps — concurrent jobs spatially share the slice. The slice-wide
//    contention pressure is
//        P = max( Σ resident FBRs, Σ resident SM shares )
//    and the slice slowdown is
//        S(P) = max(P, 1) + γ · max(0, P − knee)²
//    The FBR term is Prophet's bandwidth-contention model (Eq. 1 of the
//    paper). The SM term captures MPS *compute* contention: MPS partitions
//    the slice's SMs between clients (Fig. 1a), so kernels that can each
//    occupy the whole slice (sm_share = 1, e.g. batch-128 vision models)
//    processor-share it, while small kernels (LLM batch 4) pack without
//    compute pressure. The quadratic term models the superlinear cache/TLB
//    thrash of *excessive* consolidation the paper attributes to
//    INFless/Llama-style whole-GPU packing; below `knee` total pressure the
//    model is exactly additive (Eq. 1).
//
//    Each resident j progresses at rate min(1, S(p_j)/S(P)) where
//    p_j = max(fbr_j, sm_share_j): a job's solo measurement already
//    includes its own bandwidth ceiling, so jobs that alone saturate the
//    bus (fbr ≥ 1) are only charged for contention *beyond* that.
//    Pressure is re-evaluated on every arrival/departure.
//
// Resource deficiency (Eq. 2's RDF) is applied by the *caller*: the
// `solo_time` field of a JobSpec is the job's solo latency on the target
// slice, i.e. Solo_7g × RDF(slice). This keeps the engine model-agnostic.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "gpu/mig.h"
#include "sim/simulator.h"

namespace protean::obs {
class Tracer;
}

namespace protean::gpu {

enum class SharingMode { kTimeShare, kMps, kSoftSlice };

/// Knobs of the software-slicing substrate (mode kSoftSlice). Defined here
/// (not in src/softgpu) so the engine stays the bottom layer; src/softgpu
/// owns the user-facing config and derives these parameters from it.
struct SoftParams {
  /// nvshare-style exclusive-window time slicing instead of fractional
  /// (HAMi-core-style) spatial sharing.
  bool time_slice = false;
  /// Fraction of sibling-slice contention pressure that leaks into this
  /// slice's slowdown (statistical isolation; 0 = MIG-hard).
  double cross_penalty = 0.25;
  /// Admission capacity multiplier over the slice's memory fraction
  /// (oversubscription; the excess pays a swap slowdown).
  double mem_oversub = 1.5;
  /// Fractional throughput cost per extra co-runner in time-slice mode
  /// (context save/restore between exclusive windows).
  double switch_overhead = 0.02;
  /// Swap slowdown per unit of memory oversubscription:
  /// factor = 1 + swap_penalty × max(0, used/capacity − 1) — the same
  /// shape as the model cache's oversubscription machinery.
  double swap_penalty = 0.8;
};

/// Knobs of the MPS interference model (see file comment).
struct InterferenceParams {
  double thrash_gamma = 0.6;  ///< quadratic penalty strength
  double thrash_knee = 1.5;   ///< pressure above which thrash kicks in
  /// Per-batch overhead under time sharing (no MPS): context switch and
  /// per-container launch costs between successive batches.
  Duration timeshare_overhead = 0.030;
};

/// Slice slowdown S(P) for total contention pressure P.
double mps_slowdown(double pressure,
                    const InterferenceParams& params = {}) noexcept;

/// Everything the engine needs to know about one unit of work (one request
/// batch dispatched to a slice).
struct JobSpec {
  JobId id = 0;
  Duration solo_time = 0.0;  ///< solo latency on this slice (RDF applied).
  double fbr = 0.0;          ///< fractional bandwidth requirement (bw×sm).
  double sm_share = 1.0;     ///< fraction of this slice's SMs the kernel
                             ///< occupies: min(sm_req / compute_fraction, 1).
  MemGb mem_gb = 0.0;        ///< GPU memory held while executing.
  /// Weight portion of mem_gb. Only meaningful on GPUs built in
  /// shared-weights mode (model cache enabled): concurrent jobs of the same
  /// model_tag then charge the weights once instead of per job.
  MemGb weight_gb = 0.0;
  bool strict = false;       ///< latency class (for residency accounting).
  /// Opaque workload identity; under time sharing the swap overhead is only
  /// paid when the slice switches to a different workload's container.
  const void* model_tag = nullptr;
};

/// Delivered to the submitter when a job finishes.
struct JobCompletion {
  JobId id = 0;
  SimTime started_at = 0.0;
  SimTime finished_at = 0.0;
  /// Actual wall time spent executing (finished - started).
  Duration exec_time = 0.0;
  /// The job's solo time on the slice it ran on (for breakdown accounting).
  Duration solo_time = 0.0;
  /// Portion of exec_time this job spent stalled on weight swapping
  /// (memory oversubscription); 0 when the slice never swapped. Subset of
  /// exec_time, disjoint from contention slowdown.
  Duration swap_stall = 0.0;
  /// True when the job was aborted by a fault (node crash, slice ECC
  /// degradation); the work was lost, not served.
  bool failed = false;
};

using CompletionCallback = std::function<void(const JobCompletion&)>;

class Gpu;  // forward

/// One MIG instance. Owned by a Gpu; jobs are submitted by the node runtime.
class Slice {
 public:
  /// `gpu_memory_gb` is the total memory of the owning GPU; slice capacity
  /// scales from the Table 2 baseline (A100-40GB) proportionally, so an
  /// 80 GB part doubles every profile's memory. `shared_weights` enables
  /// per-model_tag weight charging (see JobSpec::weight_gb).
  Slice(sim::Simulator& simulator, Gpu* owner, SliceId id,
        SliceProfile profile, SharingMode mode,
        InterferenceParams interference = {}, MemGb gpu_memory_gb = 40.0,
        bool shared_weights = false, SoftParams soft = {});
  ~Slice();
  Slice(const Slice&) = delete;
  Slice& operator=(const Slice&) = delete;

  SliceId id() const noexcept { return id_; }
  SliceProfile profile() const noexcept { return profile_; }
  SharingMode mode() const noexcept { return mode_; }

  /// True if the job fits in the slice's free memory right now and the
  /// slice is accepting work (not draining for reconfiguration).
  bool can_admit(const JobSpec& spec) const noexcept;

  /// Starts executing the job immediately. Pre: can_admit(spec).
  void submit(const JobSpec& spec, CompletionCallback on_done);

  /// Fault path: aborts every resident job. Each job's completion callback
  /// fires with `failed = true` so the submitter can mark the work lost.
  /// Memory reservations (booting containers) are left untouched. Returns
  /// the number of jobs aborted.
  std::size_t abort_jobs();

  std::size_t running_jobs() const noexcept { return jobs_.size(); }
  bool idle() const noexcept { return jobs_.empty(); }

  MemGb memory_capacity() const noexcept { return mem_capacity_; }
  /// Capacity admission is checked against: the hard capacity, except under
  /// software slicing where memory may oversubscribe up to
  /// `SoftParams::mem_oversub` × capacity (the excess swaps).
  MemGb admission_capacity() const noexcept {
    return mode_ == SharingMode::kSoftSlice ? mem_capacity_ * soft_.mem_oversub
                                            : mem_capacity_;
  }
  MemGb memory_in_use() const noexcept {
    return mem_in_use_ + reserved_gb_ + weight_charged_gb_;
  }
  MemGb available_memory() const noexcept {
    return admission_capacity() - memory_in_use();
  }
  /// The free memory can_admit(spec) would require right now: the full
  /// footprint, minus the weight portion when this slice runs in
  /// shared-weights mode and the model's weights are already charged.
  MemGb admission_demand(const JobSpec& spec) const noexcept;

  /// Reserves memory ahead of job submission (models loading into a booting
  /// container). Reservations count against admission capacity and block
  /// reconfiguration drain, but do not contend for bandwidth.
  void reserve_memory(MemGb gb);
  void release_reservation(MemGb gb);
  MemGb reserved_memory() const noexcept { return reserved_gb_; }
  int reservations() const noexcept { return reservation_count_; }

  /// Sum of FBRs of currently resident jobs (the Eq. 1 contention term).
  double fbr_sum() const noexcept { return fbr_sum_; }
  /// Sum of SM shares of currently resident jobs (compute pressure).
  double sm_share_sum() const noexcept { return sm_sum_; }

  /// Memory currently held by resident best-effort jobs.
  MemGb be_memory_in_use() const noexcept { return be_mem_in_use_; }
  /// Number of resident strict / best-effort jobs.
  std::size_t strict_jobs() const noexcept;

  /// Current slice-wide slowdown S(P). Meaningful in MPS mode; 1.0 under
  /// time sharing.
  double current_slowdown() const noexcept;
  /// Total contention pressure P = max(Σfbr, Σsm_share).
  double pressure() const noexcept;
  const InterferenceParams& interference() const noexcept {
    return interference_;
  }

  /// Blocks new admissions (used while the owning GPU drains for
  /// reconfiguration). Running jobs continue to completion.
  void set_accepting(bool accepting) noexcept { accepting_ = accepting; }
  bool accepting() const noexcept { return accepting_; }

  /// nvshare-style swap slowdown from oversubscribed resident weights,
  /// multiplied into the slice slowdown (1.0 = no swapping; exact no-op).
  /// Set by the model cache whenever the slice's residency changes.
  void set_swap_slowdown(double factor);
  double swap_slowdown() const noexcept { return swap_factor_; }
  /// Engine-side swap factor from software-slice memory oversubscription
  /// (1.0 outside kSoftSlice or while within the hard capacity). Multiplies
  /// with the model cache's set_swap_slowdown factor.
  double soft_swap_factor() const noexcept;
  /// Busy seconds lost to weight swapping: ∫ busy × (1 − 1/factor) dt.
  double swap_stall_seconds() const noexcept;

  /// Sibling-slice contention pressure leaking into this slice
  /// (kSoftSlice only; maintained by the owning Gpu).
  double external_pressure() const noexcept { return external_pressure_; }

  /// Time-integral of "slice has >=1 job running" (seconds), up to now.
  double busy_seconds() const noexcept;
  /// Time-integral of memory in use (GB·s), up to now.
  double memory_gb_seconds() const noexcept;

 private:
  struct Running {
    JobSpec spec;
    Duration remaining_work;  // seconds of solo-time-equivalent work left
    double solo_slowdown;     // S(p_j): the job's own solo pressure factor
    SimTime started_at;
    Duration swap_stall = 0.0;  // seconds lost to weight swapping so far
    CompletionCallback on_done;
  };

  /// Progress rate of a resident job under the current pressure.
  double job_rate(const Running& job) const noexcept;
  /// The rate the same job would progress at were the swap factor 1.0;
  /// the gap between the two is the job's swap-stall accrual in settle().
  double job_rate_noswap(const Running& job) const noexcept;

  /// Combined slowdown from weight swapping: the model cache's factor times
  /// the engine's own oversubscription factor (kSoftSlice).
  double total_swap_factor() const noexcept {
    return swap_factor_ * soft_swap_factor();
  }

  /// Bumps the owning GPU's state_version(); every method that changes the
  /// FBR/SM sums, memory in use, reservations or weight charges calls it.
  void touch_owner() noexcept;

  /// Fault path (Gpu::fail_slice): drops in-flight boot reservations so a
  /// destroyed slice cannot leave the owning GPU's drain waiting on memory
  /// that no longer exists.
  void clear_reservations();

  // Tracing (no-ops when the owning GPU has no tracer).
  obs::Tracer* tracer() const noexcept;
  int trace_pid() const noexcept;
  void trace_busy_close();
  void trace_counters();

  /// Accounts progress since last_update_ at the previous slowdown, then
  /// recomputes the next completion event.
  void settle();
  void reschedule_completion();
  void complete_front_runner();

  sim::Simulator& sim_;
  Gpu* owner_;
  SliceId id_;
  SliceProfile profile_;
  SharingMode mode_;
  InterferenceParams interference_;
  SoftParams soft_;
  MemGb mem_capacity_ = 0.0;
  bool shared_weights_ = false;
  bool accepting_ = true;

  // ---- software-slicing coordination state (kSoftSlice only) --------------
  /// Sibling-slice pressure, scaled into current_slowdown by cross_penalty.
  double external_pressure_ = 0.0;
  /// GPU-wide resident job count (incl. this slice), the time-slicing
  /// discipline's round-robin denominator.
  std::size_t gpu_jobs_ = 0;

  std::vector<Running> jobs_;
  /// complete_front_runner()'s list of drained jobs, kept between calls so
  /// a completion allocates nothing.
  std::vector<Running> done_scratch_;
  MemGb mem_in_use_ = 0.0;
  MemGb be_mem_in_use_ = 0.0;
  MemGb reserved_gb_ = 0.0;
  int reservation_count_ = 0;
  /// Shared-weights mode: refcount + charged GB per resident model tag.
  struct WeightRef {
    int count = 0;
    MemGb gb = 0.0;
  };
  std::map<const void*, WeightRef> weight_refs_;
  MemGb weight_charged_gb_ = 0.0;
  double swap_factor_ = 1.0;
  double swap_stall_integral_ = 0.0;
  double fbr_sum_ = 0.0;
  double sm_sum_ = 0.0;
  SimTime last_update_ = 0.0;
  const void* last_model_tag_ = nullptr;
  sim::EventHandle completion_event_;
  /// Start of the current busy interval; valid while jobs_ is non-empty.
  SimTime busy_since_ = 0.0;
  // Last emitted counter sample (dedup so settle-heavy runs stay compact).
  double trace_pressure_ = -1.0;
  double trace_slowdown_ = -1.0;
  MemGb trace_mem_ = -1.0;
  int trace_reservations_ = -1;

  // Utilization accounting.
  double busy_integral_ = 0.0;
  double mem_integral_ = 0.0;
  SimTime util_last_update_ = 0.0;

  friend class Gpu;
};

/// A whole physical GPU: a MIG geometry instantiated as runnable slices,
/// plus the reconfiguration state machine (drain → downtime → new geometry).
class Gpu {
 public:
  /// `reconfigure_time` is the MIG geometry-change downtime (~2 s in the
  /// paper) during which no slice accepts or runs work. `memory_gb`
  /// selects the part (A100-40GB vs A100-80GB); slice capacities scale
  /// proportionally. `shared_weights` turns on per-model weight charging
  /// for the model-cache subsystem.
  /// `tracer`, when non-null, receives per-slice busy spans, settle-point
  /// counter timelines and reconfiguration spans (src/obs); the engine
  /// never reads from it, so a null tracer is behaviour-identical.
  /// `soft` configures the software-slicing substrate; only read when
  /// `mode` is kSoftSlice (defaults keep other modes byte-identical).
  Gpu(sim::Simulator& simulator, GpuId id, Geometry geometry, SharingMode mode,
      Duration reconfigure_time = 2.0, InterferenceParams interference = {},
      MemGb memory_gb = 40.0, bool shared_weights = false,
      obs::Tracer* tracer = nullptr, SoftParams soft = {});
  ~Gpu();  // cancels the pending reconfiguration-downtime event, if any
  Gpu(const Gpu&) = delete;
  Gpu& operator=(const Gpu&) = delete;

  GpuId id() const noexcept { return id_; }
  const Geometry& geometry() const noexcept { return geometry_; }
  SharingMode mode() const noexcept { return mode_; }

  /// Live slices, descending by size. Empty while the GPU is down for a
  /// reconfiguration (still populated while it drains). The view is over a
  /// maintained pointer array, so reading it never allocates; it stays
  /// valid until the next change to the slice set or the GPU's state.
  std::span<Slice* const> slices() noexcept { return live_; }
  std::span<const Slice* const> slices() const noexcept {
    return {static_cast<const Slice* const*>(live_.data()), live_.size()};
  }

  bool reconfiguring() const noexcept { return state_ != State::kReady; }

  /// Requests a geometry change. New submissions are refused immediately;
  /// once all slices drain, the GPU is down for `reconfigure_time`, after
  /// which the new geometry is live and `on_done` fires. Requesting the
  /// current geometry is a no-op (on_done fires immediately) and never
  /// disturbs an in-flight drain — a request during one returns false.
  /// Returns false (and does nothing) if a reconfiguration is in flight.
  ///
  /// Under kSoftSlice the change applies *in place* with zero downtime:
  /// idle slices are replaced immediately, busy ones stop accepting and
  /// retire once their jobs drain (still contending meanwhile), and
  /// `on_done` fires before this returns. reconfiguring() never reads true.
  bool request_reconfigure(const Geometry& target,
                           std::function<void()> on_done = {});

  /// Busy soft slices from superseded geometries still finishing their
  /// resident jobs (kSoftSlice only; empty otherwise).
  std::size_t retiring_slices() const noexcept { return retiring_.size(); }

  /// Invoked whenever capacity may have been freed: a job completed or a
  /// reconfiguration finished. The node runtime uses this to drain queues.
  void set_capacity_callback(std::function<void()> cb) {
    on_capacity_ = std::move(cb);
  }

  // ---- fault injection (src/fault) ----------------------------------------

  /// Aborts every resident job on every slice (node crash). Completion
  /// callbacks fire with `failed = true`.
  std::size_t abort_all_jobs();

  /// ECC degradation: aborts the slice's jobs, retires its utilization
  /// integrals, and removes it (and its profile) from the live geometry —
  /// the surviving slices keep running. Returns false when the slice is
  /// unknown, mid-reconfiguration, or the last one left (a zero-slice
  /// geometry is not representable; callers escalate instead).
  bool fail_slice(SliceId id);

  /// Downtime multiplier of a reconfiguration attempt that times out.
  static constexpr double kReconfigFailMultiplier = 2.0;

  /// Installs the reconfiguration-failure hook: `should_fail` is evaluated
  /// once per drained reconfiguration attempt; on failure the GPU pays
  /// kReconfigFailMultiplier × the normal downtime and comes back in its
  /// *old* geometry without bumping reconfigurations(). Null (the default)
  /// disables it.
  void set_reconfig_fault(std::function<bool()> should_fail) {
    reconfig_should_fail_ = std::move(should_fail);
  }

  /// Reconfiguration attempts that timed out (see set_reconfig_fault).
  int failed_reconfigurations() const noexcept {
    return failed_reconfig_count_;
  }

  /// Bumps whenever the live slice set changes identity: a completed
  /// reconfiguration, a failed one (slices rebuilt in the old geometry), or
  /// a slice lost to ECC. Equals reconfigurations() when faults are off —
  /// consumers keying residency syncs on it see identical behaviour.
  int topology_version() const noexcept { return topology_version_; }

  /// Bumps whenever anything an estimate summed over slices() may read has
  /// changed: a live slice's FBR/SM sums, memory in use, reservations or
  /// weight charges, the slice set, or the GPU's state. The bumps live in
  /// the mutating Slice/Gpu methods themselves, so a caller keying a memo
  /// on this stamp cannot miss one (WorkerNode::dispatch_estimate). A
  /// replacement Gpu restarts the count, so whoever swaps in a new Gpu
  /// must invalidate memos keyed on the old one.
  std::uint64_t state_version() const noexcept { return state_version_; }

  /// Whole-GPU busy time (>=1 job anywhere), seconds up to now.
  double busy_seconds() const noexcept;
  /// Memory utilization integral across slices, GB·s up to now.
  double memory_gb_seconds() const noexcept;
  /// Swap-stall seconds across slices (incl. reconfiguration-retired ones).
  double swap_stall_seconds() const noexcept;
  /// Monotone total of reconfiguration downtime (state kDown), seconds up
  /// to now — includes the live in-progress blackout, so two reads bracket
  /// a batch's exposure to this GPU's blackouts exactly (src/attr).
  double downtime_seconds() const noexcept;
  /// Total GPU memory (for normalizing memory utilization).
  MemGb memory_capacity() const noexcept { return memory_gb_; }
  /// Number of completed reconfigurations.
  int reconfigurations() const noexcept { return reconfig_count_; }

  // Telemetry aggregates over the live slice set (0 while reconfiguring).
  /// Memory in use across live slices, GB (incl. reservations + weights).
  MemGb resident_gb() const noexcept;
  /// Largest per-slice contention pressure P.
  double max_pressure() const noexcept;
  /// Largest per-slice slowdown S(P) (1.0 when idle or time-shared).
  double max_slowdown() const noexcept;

 private:
  friend class Slice;
  enum class State { kReady, kDraining, kDown };

  void build_slices();
  /// Enters `state` and republishes slices() for it.
  void set_state(State state);
  /// Rebuilds the slices() view from slices_ and state_, and bumps
  /// state_version(); called after every change to either.
  void refresh_live();
  void on_slice_activity_change(bool became_busy);
  void on_job_complete();
  void maybe_finish_drain();
  /// kSoftSlice: republishes the GPU-wide coordination state (total job
  /// count, per-slice external pressure) to every live and retiring slice
  /// after any arrival/departure, and reprices their completions.
  void soft_resettle();
  /// kSoftSlice: applies a geometry change in place (no drain/downtime).
  bool soft_reconfigure(const Geometry& target, std::function<void()> on_done);
  /// Destroys retiring soft slices whose jobs have drained.
  void reap_retired();

  sim::Simulator& sim_;
  GpuId id_;
  Geometry geometry_;
  SharingMode mode_;
  Duration reconfigure_time_;
  InterferenceParams interference_;
  SoftParams soft_;
  MemGb memory_gb_ = 40.0;
  bool shared_weights_ = false;
  // Declared before slices_ so ~Slice (busy-span flush) can still read it.
  obs::Tracer* tracer_ = nullptr;

  std::vector<std::unique_ptr<Slice>> slices_;
  /// slices() view: slices_ while kReady/kDraining, empty while kDown.
  std::vector<Slice*> live_;
  std::uint64_t state_version_ = 0;
  /// kSoftSlice: busy slices superseded by an in-place repartition; they
  /// finish (and contend) in the background and are reaped when idle.
  std::vector<std::unique_ptr<Slice>> retiring_;
  sim::EventHandle reap_event_;  ///< pending deferred reap, if any
  bool reap_scheduled_ = false;
  bool soft_resettling_ = false;
  State state_ = State::kReady;
  Geometry target_geometry_;
  std::function<void()> reconfig_done_;
  sim::EventHandle reconfig_event_;  ///< pending downtime-complete event
  std::function<void()> on_capacity_;
  int reconfig_count_ = 0;
  std::function<bool()> reconfig_should_fail_;
  int failed_reconfig_count_ = 0;
  int topology_version_ = 0;

  // Whole-GPU busy accounting.
  int busy_slices_ = 0;
  double busy_integral_ = 0.0;
  SimTime busy_last_update_ = 0.0;
  // Integrals carried over from slices destroyed by reconfiguration.
  double mem_integral_retired_ = 0.0;
  double swap_stall_retired_ = 0.0;
  // Reconfiguration-blackout accounting (downtime_seconds()).
  double completed_downtime_ = 0.0;
  SimTime down_since_ = 0.0;

  std::uint32_t next_slice_id_ = 0;
};

/// Canonical ascending slice order (compute units, then slice id) shared by
/// the job distributor's Algorithm 1 tagging and the node-side sorted-slice
/// cache, so a cached ordering is byte-identical to a fresh sort.
inline bool slice_order_ascending(const Slice* a, const Slice* b) noexcept {
  const int ua = traits(a->profile()).compute_units;
  const int ub = traits(b->profile()).compute_units;
  if (ua != ub) return ua < ub;
  return a->id() < b->id();
}

}  // namespace protean::gpu
