#include "sim/simulator.h"

#include <algorithm>
#include <utility>

namespace protean::sim {

namespace {
// Below this heap size compaction is pointless churn; the O(n) rebuild only
// pays for itself once tombstone counts are macroscopic.
constexpr std::size_t kCompactionFloor = 64;
}  // namespace

EventHandle Simulator::schedule_at(SimTime when, Callback cb) {
  PROTEAN_CHECK_MSG(when >= now_, "cannot schedule into the past");
  PROTEAN_CHECK_MSG(static_cast<bool>(cb), "null event callback");
  const std::uint64_t seq = next_seq_++;
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(callbacks_.size());
    callbacks_.push_back(std::move(cb));
    slot_seq_.push_back(seq);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    callbacks_[slot] = std::move(cb);
    slot_seq_[slot] = seq;
  }
  queue_.push_back(Key{when, seq, slot});
  std::push_heap(queue_.begin(), queue_.end(), KeyAfter{});
  return EventHandle(seq, slot);
}

bool Simulator::cancel(EventHandle handle) {
  if (!handle.valid()) return false;
  // We cannot remove from the middle of a binary heap; instead the event's
  // slot is freed, turning its key into a tombstone that pop paths discard
  // (and compaction sweeps in bulk). The callback — and whatever it
  // captured — is destroyed now, not when the tombstone surfaces.
  // Cancelling an event that already executed (or was already cancelled)
  // is a no-op even after its slot was reused, since the reused slot
  // carries a newer seq; nothing accumulates across repeated PeriodicTask
  // stops.
  if (handle.slot_ >= slot_seq_.size() ||
      slot_seq_[handle.slot_] != handle.seq_) {
    return false;
  }
  take(handle.slot_);  // the returned callback is destroyed right here
  maybe_compact();
  return true;
}

Simulator::Callback Simulator::take(std::uint32_t slot) {
  Callback cb = std::move(callbacks_[slot]);
  callbacks_[slot] = nullptr;
  slot_seq_[slot] = 0;
  free_slots_.push_back(slot);
  return cb;
}

void Simulator::maybe_compact() {
  // Lazy tombstone compaction: rebuild the heap once dead entries exceed the
  // live ones (i.e. more than half the heap is garbage). Amortized O(1) per
  // cancel — each compaction is O(n) but at least halves the heap.
  if (queue_.size() < kCompactionFloor) return;
  if (queue_.size() <= 2 * pending()) return;
  std::erase_if(queue_, [&](const Key& key) { return !live(key); });
  std::make_heap(queue_.begin(), queue_.end(), KeyAfter{});
}

Simulator::Key Simulator::pop_top() {
  std::pop_heap(queue_.begin(), queue_.end(), KeyAfter{});
  const Key key = queue_.back();
  queue_.pop_back();
  return key;
}

void Simulator::pop_cancelled() {
  while (!queue_.empty() && !live(queue_.front())) pop_top();
}

void Simulator::extract_batch() {
  batch_.clear();
  const SimTime when = queue_.front().when;
  while (!queue_.empty() && queue_.front().when == when) {
    batch_.push_back(pop_top());
  }
}

std::size_t Simulator::run_batch() {
  now_ = batch_.front().when;
  std::size_t count = 0;
  for (const Key& key : batch_) {
    // A callback earlier in the batch may cancel a later member; re-check
    // liveness immediately before running, exactly like the per-pop path.
    if (!live(key)) continue;
    const Callback cb = take(key.slot);
    ++executed_;
    ++count;
    cb();
  }
  // Events the callbacks scheduled *at* this same timestamp carry larger
  // seqs than anything already executed; the next extraction picks them up
  // in order, preserving the FIFO contract.
  return count;
}

bool Simulator::step() {
  pop_cancelled();
  if (queue_.empty()) return false;
  const Key key = pop_top();
  PROTEAN_DCHECK(key.when >= now_);
  now_ = key.when;
  // Take the callback out before running so it may schedule freely.
  const Callback cb = take(key.slot);
  ++executed_;
  cb();
  return true;
}

std::size_t Simulator::run_until(SimTime until) {
  std::size_t count = 0;
  for (;;) {
    pop_cancelled();
    if (queue_.empty() || queue_.front().when > until) break;
    // Coalesce every event sharing the earliest timestamp into one batch:
    // heap pops at equal `when` yield ascending seq, so execution order is
    // identical to popping one event at a time.
    extract_batch();
    count += run_batch();
  }
  batch_.clear();
  // Advance the clock to the horizon even if no event landed exactly there,
  // so back-to-back run_until calls observe monotonic time.
  if (until > now_) now_ = until;
  return count;
}

std::size_t Simulator::run_to_completion() {
  std::size_t count = 0;
  for (;;) {
    pop_cancelled();
    if (queue_.empty()) break;
    extract_batch();
    count += run_batch();
  }
  batch_.clear();
  return count;
}

PeriodicTask::PeriodicTask(Simulator& simulator, Duration period,
                           std::function<void()> callback,
                           bool fire_immediately)
    : sim_(simulator), period_(period), callback_(std::move(callback)) {
  PROTEAN_CHECK_MSG(period_ > 0.0, "period must be positive");
  PROTEAN_CHECK_MSG(static_cast<bool>(callback_), "null periodic callback");
  next_ = sim_.now();
  if (fire_immediately) {
    pending_ = sim_.schedule_at(next_, [this] { fire(); });
  } else {
    arm();
  }
}

void PeriodicTask::arm() {
  // Absolute phase: accumulate from the previous fire time. The FP sums are
  // bit-identical to the historical schedule_after(period_)-from-the-callback
  // sequence (the clock reads the fire time when the callback runs), so fire
  // timestamps are unchanged — but a slow callback can no longer skew them.
  next_ += period_;
  pending_ = sim_.schedule_at(next_, [this] { fire(); });
}

void PeriodicTask::fire() {
  // Retire the handle before invoking the callback: a stop() issued from
  // inside the callback (or by its side effects) must not cancel whatever
  // unrelated event later reuses this heap slot via a stale handle.
  pending_ = EventHandle();
  callback_();
  if (running_) arm();
}

void PeriodicTask::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(pending_);
  pending_ = EventHandle();
}

}  // namespace protean::sim
