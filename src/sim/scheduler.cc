#include "sim/scheduler.h"

#include <cassert>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace wimpy::sim {

EventId Scheduler::HeapPush(SimTime t, std::uint64_t seq,
                            std::uint32_t slot) {
  // First growth jumps straight to a useful capacity so warmed-up runs
  // never reallocate on the schedule path (sim_scheduler_stress_test pins
  // this with an operator-new override).
  if (heap_.size() == heap_.capacity() && heap_.capacity() < kHeapReserve) {
    heap_.reserve(kHeapReserve);
  }
  const std::uint64_t key = (seq << kSlotBits) | slot;
  heap_.push_back(HeapEntry{t, key});
  HeapSiftUp(heap_.size() - 1);
  return key;
}

EventId Scheduler::ScheduleAt(SimTime t, EventFn fn) {
  // An empty closure would be counted live but dropped as cancelled when
  // it reached the top, leaving pending_events() stuck above zero.
  Check(static_cast<bool>(fn), "sim::Scheduler", "empty event closure");
  if (t < now_) t = now_;
  if (fn.heap_allocated()) ++fn_heap_allocs_;
  const std::uint32_t slot = AcquireSlot();
  fns_[slot] = std::move(fn);
  const std::uint64_t seq = next_seq_++;
  slot_seq_[slot] = seq;
  ++live_scheduled_;
  return HeapPush(t, seq, slot);
}

EventId Scheduler::ScheduleAfter(Duration delay, EventFn fn) {
  if (delay < 0) delay = 0;
  return ScheduleAt(now_ + delay, std::move(fn));
}

bool Scheduler::Cancel(EventId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id & kSlotMask);
  if (!IsLive(id >> kSlotBits, slot)) {
    return false;  // never issued, already ran, or already cancelled
  }
  // O(1): destroy the closure now; ResolveTop frees the slot when the
  // event's heap entry reaches the top.
  fns_[slot].Reset();
  --live_scheduled_;
  return true;
}

EventId Scheduler::RescheduleAfter(EventId id, Duration delay) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id & kSlotMask);
  if (!IsLive(id >> kSlotBits, slot)) {
    return 0;  // never issued, already ran, or already cancelled
  }
  if (delay < 0) delay = 0;
  // The slot keeps its closure under a fresh sequence number; the old heap
  // entry goes stale and is dropped when it reaches the top.
  const std::uint64_t seq = next_seq_++;
  slot_seq_[slot] = seq;
  return HeapPush(now_ + delay, seq, slot);
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

void Scheduler::HeapSiftUp(std::size_t pos) {
  const HeapEntry e = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) >> 2;
    if (!EntryLess(e, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = e;
}

void Scheduler::HeapSiftDown(std::size_t pos) {
  const HeapEntry e = heap_[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = (pos << 2) + 1;
    if (child >= n) break;
    const std::size_t end = child + 4 < n ? child + 4 : n;
    std::size_t best = child;
    for (std::size_t c = child + 1; c < end; ++c) {
      if (EntryLess(heap_[c], heap_[best])) best = c;
    }
    if (!EntryLess(heap_[best], e)) break;
    heap_[pos] = heap_[best];
    pos = best;
  }
  heap_[pos] = e;
}

void Scheduler::PopRootEntry() {
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) HeapSiftDown(0);
}

void Scheduler::ResolveTop() {
  while (!heap_.empty()) {
    const std::uint64_t key = heap_[0].key;
    const std::uint32_t slot = static_cast<std::uint32_t>(key & kSlotMask);
    if (slot_seq_[slot] == key >> kSlotBits) {
      if (fns_[slot]) return;
      FreeSlot(slot);  // cancelled
    }
    // Otherwise the entry is stale: the event was rescheduled, or fired
    // and its slot now holds a newer event. The slot is not ours to free.
    PopRootEntry();
  }
}

bool Scheduler::TakeRingNext() const {
  if (ring_count_ == 0) return false;
  if (heap_.empty()) return true;
  const HeapEntry& top = heap_[0];
  // Ring entries were posted at the current instant (the clock cannot
  // advance past a pending wake-up), so any strictly-future heap event
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
  // The ring lost (or is empty), so the next event is the live heap top.
  const HeapEntry top = heap_[0];
  PopRootEntry();
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
      if (heap_.empty()) {
        // Queue drained before the time limit: land the clock on `until`,
        // matching the next-event-beyond-`until` exit below.
        if (until > now_ && std::isfinite(until)) now_ = until;
        break;
      }
      if (heap_[0].time > until) {
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
