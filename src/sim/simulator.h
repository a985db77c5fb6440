// Discrete-event simulation core.
//
// The simulator owns a virtual clock and a binary min-heap of events. All
// substrates (GPU engine, cluster, spot market, trace generator) schedule
// callbacks on it. Events scheduled at the same timestamp fire in FIFO order
// of scheduling, which makes runs deterministic.
//
// Scale hygiene (docs/scale.md): the heap holds 24-byte POD keys
// {when, seq, slot}; callbacks live in a slot slab recycled through a free
// list, so scheduling an event allocates nothing once the slab has grown to
// the peak live count. An event is live iff its slot still carries its
// seq. Cancelling one frees its slot and destroys its callback at once and
// leaves the key behind as a tombstone; a lazy compaction pass rebuilds the
// heap whenever tombstones outnumber live entries, so heavy cancel churn
// (hedging, autoscale drain, PeriodicTask stops) keeps memory bounded by the
// live event count. The run loops extract all keys sharing the earliest
// timestamp in one batch, touching the heap once per pop instead of
// re-checking the top between callbacks.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace protean::sim {

/// Handle that allows a scheduled event to be cancelled: the event's
/// sequence number and its slab slot. A handle outliving its event (run or
/// cancelled) stays harmless after the slot is reused, because the slot
/// then carries a different sequence number.
class EventHandle {
 public:
  EventHandle() = default;

  bool valid() const noexcept { return seq_ != 0; }

 private:
  friend class Simulator;
  EventHandle(std::uint64_t seq, std::uint32_t slot)
      : seq_(seq), slot_(slot) {}
  std::uint64_t seq_ = 0;
  std::uint32_t slot_ = 0;
};

class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time in seconds.
  SimTime now() const noexcept { return now_; }

  /// Schedules `cb` to run at absolute time `when` (must be >= now()).
  EventHandle schedule_at(SimTime when, Callback cb);

  /// Schedules `cb` to run `delay` seconds from now (delay >= 0).
  EventHandle schedule_after(Duration delay, Callback cb) {
    PROTEAN_CHECK_MSG(delay >= 0.0, "negative delay");
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Cancels a pending event. Returns true if the event was still pending.
  bool cancel(EventHandle handle);

  /// Runs events until the queue drains or the clock passes `until`.
  /// Returns the number of events executed.
  std::size_t run_until(SimTime until);

  /// Runs until the queue is completely drained.
  std::size_t run_to_completion();

  /// Executes the single earliest pending event; returns false if none.
  bool step();

  /// Number of events currently pending (cancelled tombstones excluded).
  std::size_t pending() const noexcept {
    return callbacks_.size() - free_slots_.size();
  }

  /// Heap entries including tombstones awaiting compaction (test/debug
  /// observability for the bounded-memory guarantee).
  std::size_t heap_size() const noexcept { return queue_.size(); }

  /// Total events executed since construction.
  std::uint64_t executed() const noexcept { return executed_; }

 private:
  /// Heap key. The callback lives in callbacks_[slot]; the key is a
  /// tombstone once slot_seq_[slot] no longer equals seq.
  struct Key {
    SimTime when;
    std::uint64_t seq;  // FIFO tiebreak + liveness stamp
    std::uint32_t slot;
  };

  // Min-heap order for std::push_heap/pop_heap (which build max-heaps):
  // "after" = later time, then later sequence number.
  struct KeyAfter {
    bool operator()(const Key& a, const Key& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  bool live(const Key& key) const noexcept {
    return slot_seq_[key.slot] == key.seq;
  }
  /// Frees a live event's slot: the callback is moved out (the slab may
  /// grow while it runs) and the slot returns to the free list.
  Callback take(std::uint32_t slot);
  void pop_cancelled();
  void maybe_compact();
  Key pop_top();
  /// Moves every key sharing the earliest timestamp into `batch_`
  /// (ascending seq — heap pops at equal `when` preserve FIFO order).
  void extract_batch();
  /// Runs the live members of batch_ in order; returns how many ran.
  std::size_t run_batch();

  std::vector<Key> queue_;  // binary heap under KeyAfter
  // The slot slab: callbacks_[i] is the callback of the live event whose
  // seq is slot_seq_[i] (0 while the slot is free). Free slots are reused
  // last-freed first.
  std::vector<Callback> callbacks_;
  std::vector<std::uint64_t> slot_seq_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Key> batch_;  // scratch for same-timestamp coalescing
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
};

/// Repeatedly invokes a callback every `period` seconds until stopped.
/// The callback observes the simulator clock; the first tick fires at
/// `start + period` unless `fire_immediately` is set. Firing is pinned to
/// an absolute phase (start + k·period accumulated): the next tick is
/// scheduled relative to the previous *fire time*, never to whatever the
/// clock reads after the callback returns, so slow callbacks cannot drift
/// the schedule.
class PeriodicTask {
 public:
  PeriodicTask(Simulator& simulator, Duration period,
               std::function<void()> callback, bool fire_immediately = false);
  ~PeriodicTask() { stop(); }
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void stop();
  bool running() const noexcept { return running_; }
  Duration period() const noexcept { return period_; }

 private:
  void arm();
  void fire();

  Simulator& sim_;
  Duration period_;
  std::function<void()> callback_;
  EventHandle pending_;
  SimTime next_ = 0.0;  // absolute phase of the next (or current) fire
  bool running_ = true;
};

}  // namespace protean::sim
