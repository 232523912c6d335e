#include "sim/scheduler.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace wimpy::sim {

EventId Scheduler::Push(SimTime t, std::uint64_t seq, std::uint32_t slot) {
  assert(TimeBits(t) >= last_);
  const std::uint64_t key = (seq << kSlotBits) | slot;
  const std::uint32_t node = AcquireNode();
  entries_[node] = Entry{t, key};
  const unsigned b = BucketOf(t);
  if (b == 0) {
    // Append: the newest key is the largest at the reference instant.
    next_[node] = kNil;
    if (occupied_ & 1) {
      next_[tail0_] = node;
    } else {
      head_[0] = node;
    }
    tail0_ = node;
  } else {
    next_[node] = head_[b];
    head_[b] = node;
  }
  occupied_ |= 1ull << b;
  // Same time as the known minimum means a larger key, so only an
  // earlier time takes over.
  if (top_ != kNil && t < entries_[top_].time) top_ = node;
  return key;
}

EventId Scheduler::ScheduleAt(SimTime t, EventFn fn) {
  // An empty closure would be counted live but dropped as cancelled when
  // it reached the top, leaving pending_events() stuck above zero.
  Check(static_cast<bool>(fn), "sim::Scheduler", "empty event closure");
  if (!(t >= now_)) {
    Check(t < now_, "sim::Scheduler", "NaN event time");
    t = now_;
  }
  if (fn.heap_allocated()) ++fn_heap_allocs_;
  const std::uint32_t slot = AcquireSlot();
  fns_[slot] = std::move(fn);
  const std::uint64_t seq = next_seq_++;
  slot_seq_[slot] = seq;
  ++live_scheduled_;
  return Push(t, seq, slot);
}

EventId Scheduler::ScheduleAfter(Duration delay, EventFn fn) {
  if (!(delay >= 0)) {
    Check(delay < 0, "sim::Scheduler", "NaN event delay");
    delay = 0;
  }
  return ScheduleAt(now_ + delay, std::move(fn));
}

bool Scheduler::Cancel(EventId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id & kSlotMask);
  if (!IsLive(id >> kSlotBits, slot)) {
    return false;  // never issued, already ran, or already cancelled
  }
  // O(1): destroy the closure now; ResolveTop frees the slot when the
  // event's entry surfaces.
  fns_[slot].Reset();
  --live_scheduled_;
  return true;
}

EventId Scheduler::RescheduleAfter(EventId id, Duration delay) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id & kSlotMask);
  if (!IsLive(id >> kSlotBits, slot)) {
    return 0;  // never issued, already ran, or already cancelled
  }
  if (!(delay >= 0)) {
    Check(delay < 0, "sim::Scheduler", "NaN event delay");
    delay = 0;
  }
  // The slot keeps its closure under a fresh sequence number; the old
  // entry goes stale and is dropped when it surfaces.
  const std::uint64_t seq = next_seq_++;
  slot_seq_[slot] = seq;
  return Push(now_ + delay, seq, slot);
}

void Scheduler::ResumeLater(std::coroutine_handle<> handle) {
  RingPush(handle, next_seq_++);
  ++fast_lane_resumes_;
}

std::uint32_t Scheduler::AcquireSlot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const std::size_t slot = fns_.size();
  Check(slot < (1ull << kSlotBits), "sim::Scheduler",
        "more than 2^24 pending events");
  if (slot == fns_.capacity() && slot < kSlotReserve) {
    fns_.reserve(kSlotReserve);
    slot_seq_.reserve(kSlotReserve);
  }
  fns_.emplace_back();
  slot_seq_.push_back(0);
  return static_cast<std::uint32_t>(slot);
}

std::uint32_t Scheduler::AcquireNode() {
  if (free_node_ != kNil) {
    const std::uint32_t node = free_node_;
    free_node_ = next_[node];
    return node;
  }
  // First growth jumps straight to a useful capacity so warmed-up runs
  // never reallocate on the schedule path (sim_scheduler_stress_test pins
  // this with an operator-new override).
  if (entries_.size() == entries_.capacity() &&
      entries_.capacity() < kEntryReserve) {
    entries_.reserve(kEntryReserve);
    next_.reserve(kEntryReserve);
  }
  entries_.emplace_back();
  next_.push_back(kNil);
  return static_cast<std::uint32_t>(entries_.size() - 1);
}

void Scheduler::Discard(std::uint32_t node) {
  const std::uint64_t key = entries_[node].key;
  const std::uint32_t slot = static_cast<std::uint32_t>(key & kSlotMask);
  // A cancelled event still owns its slot. A stale entry's slot belongs
  // to a newer event (it was rescheduled, or fired and the slot was
  // reused) and is not ours to free.
  if (slot_seq_[slot] == key >> kSlotBits) FreeSlot(slot);
  FreeNode(node);
}

void Scheduler::DropDeadEntries(unsigned b) {
  std::size_t dropped = 0;
  std::uint32_t* link = &head_[b];
  while (*link != kNil) {
    const std::uint32_t node = *link;
    if (EntryLive(node)) {
      link = &next_[node];
    } else {
      *link = next_[node];
      Discard(node);
      ++dropped;
    }
  }
  if (head_[b] == kNil) occupied_ &= ~(1ull << b);
  // The dead minimum lies in this bucket unless an entry landed below the
  // reference time; without this check ResolveTop would spin on it.
  Check(dropped > 0, "sim::Scheduler", "pending-set bucket invariant broken");
}

std::uint32_t Scheduler::FindMin() const {
  if (occupied_ & 1) return head_[0];
  std::uint32_t best = head_[std::countr_zero(occupied_)];
  for (std::uint32_t n = next_[best]; n != kNil; n = next_[n]) {
    if (EntryLess(entries_[n], entries_[best])) best = n;
  }
  return best;
}

void Scheduler::Advance(SimTime t) {
  const unsigned b = BucketOf(t);
  assert(b > 0 && (occupied_ & 1) == 0);
  last_ = TimeBits(t);
  std::uint32_t n = head_[b];
  head_[b] = kNil;
  occupied_ &= ~(1ull << b);
  ties_.clear();
  // Every entry of bucket b agrees with the new reference time above bit
  // b-1, so each moves to a strictly lower bucket.
  while (n != kNil) {
    const std::uint32_t next = next_[n];
    const unsigned nb = BucketOf(entries_[n].time);
    if (nb == 0) {
      ties_.push_back(n);
    } else {
      next_[n] = head_[nb];
      head_[nb] = n;
      occupied_ |= 1ull << nb;
    }
    n = next;
  }
  // The minimum itself lands in bucket 0 unless an entry was misfiled.
  Check(!ties_.empty(), "sim::Scheduler",
        "pending-set bucket invariant broken");
  if (ties_.size() > 1) {
    std::sort(ties_.begin(), ties_.end(),
              [this](std::uint32_t x, std::uint32_t y) {
                return entries_[x].key < entries_[y].key;
              });
  }
  head_[0] = ties_[0];
  for (std::size_t i = 1; i < ties_.size(); ++i) {
    next_[ties_[i - 1]] = ties_[i];
  }
  tail0_ = ties_.back();
  next_[tail0_] = kNil;
  occupied_ |= 1;
}

void Scheduler::ResolveTop() {
  for (;;) {
    if (top_ == kNil) {
      if (occupied_ == 0) return;
      top_ = FindMin();
    }
    if (EntryLive(top_)) return;
    // A dead minimum: drop it (bucket 0) or every dead entry of its
    // bucket, so one scan serves a run of cancelled minima. The reference
    // time stays put; a later push may land below the dropped entry.
    const unsigned b = BucketOf(entries_[top_].time);
    if (b == 0) {
      Check(head_[0] == top_, "sim::Scheduler",
            "pending-set bucket invariant broken");
      UnlinkHead();
      Discard(top_);
    } else {
      DropDeadEntries(b);
    }
    top_ = kNil;
  }
}

bool Scheduler::TakeRingNext() const {
  if (ring_count_ == 0) return false;
  if (top_ == kNil) return true;
  const Entry& top = entries_[top_];
  // Ring entries were posted at the current instant (the clock cannot
  // advance past a pending wake-up), so any strictly-future timed event
  // loses; at the current instant the smaller sequence number wins.
  if (top.time > now_) return true;
  assert(top.time == now_);
  return (top.key >> kSlotBits) > ring_[ring_head_].seq;
}

void Scheduler::RingPush(std::coroutine_handle<> handle, std::uint64_t seq) {
  if (ring_count_ == ring_.size()) RingGrow();
  ring_[(ring_head_ + ring_count_) & (ring_.size() - 1)] =
      RingEntry{handle, seq};
  ++ring_count_;
}

Scheduler::RingEntry Scheduler::RingPop() {
  const RingEntry e = ring_[ring_head_];
  ring_head_ = (ring_head_ + 1) & (ring_.size() - 1);
  --ring_count_;
  return e;
}

void Scheduler::RingGrow() {
  const std::size_t old_cap = ring_.size();
  const std::size_t new_cap = old_cap == 0 ? 16 : old_cap * 2;
  std::vector<RingEntry> grown(new_cap);
  for (std::size_t i = 0; i < ring_count_; ++i) {
    grown[i] = ring_[(ring_head_ + i) & (old_cap - 1)];
  }
  ring_ = std::move(grown);
  ring_head_ = 0;
}

void Scheduler::ExecuteNext() {
  if (TakeRingNext()) {
    const RingEntry e = RingPop();
    ++executed_events_;
    if (exec_hook_) exec_hook_(exec_hook_ctx_, now_, e.seq);
    e.handle.resume();
    return;
  }
  // The ring lost (or is empty), so the next event is the live minimum.
  // It becomes bucket 0's head, moving the reference time if need be.
  const std::uint32_t node = top_;
  const Entry top = entries_[node];
  top_ = kNil;
  if (TimeBits(top.time) != last_) Advance(top.time);
  assert(head_[0] == node);
  UnlinkHead();
  FreeNode(node);
  const std::uint32_t slot = static_cast<std::uint32_t>(top.key & kSlotMask);
  EventFn fn = std::move(fns_[slot]);
  FreeSlot(slot);
  --live_scheduled_;
  assert(top.time >= now_);
  now_ = top.time;
  ++executed_events_;
  if (exec_hook_) exec_hook_(exec_hook_ctx_, now_, top.key >> kSlotBits);
  fn();
}

bool Scheduler::Step() {
  if (empty()) return false;
  ResolveTop();
  ExecuteNext();
  return true;
}

std::size_t Scheduler::Run(SimTime until, std::size_t max_events) {
  if (until < now_) return 0;
  std::size_t executed = 0;
  while (executed < max_events) {
    ResolveTop();
    // A non-empty ring always has work due at the current instant, which
    // is <= until by the loop invariant.
    if (ring_count_ == 0) {
      if (top_ == kNil) {
        // Queue drained before the time limit: land the clock on `until`,
        // matching the next-event-beyond-`until` exit below.
        if (until > now_ && std::isfinite(until)) now_ = until;
        break;
      }
      if (entries_[top_].time > until) {
        if (until > now_) now_ = until;
        break;
      }
    }
    ExecuteNext();
    ++executed;
  }
  return executed;
}

}  // namespace wimpy::sim
