#include "sim/scheduler.h"

#include <cassert>
#include <cmath>
#include <cstring>
#include <new>
#include <utility>

namespace wimpy::sim {

Scheduler::~Scheduler() {
  // Chunks are raw storage; exactly the slots ever acquired hold
  // constructed EventFns (freelist reuse keeps them constructed-but-empty).
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    FnAt(static_cast<std::uint32_t>(i)).~EventFn();
  }
}

namespace {
constexpr std::uint64_t ChainKey(std::uint64_t seq, std::uint32_t slot) {
  return (seq << 24) | slot;
}
}  // namespace

std::size_t Scheduler::CacheIndex(SimTime t) {
  // Hash the raw bits. Small integer timestamps keep their entropy in the
  // top mantissa/exponent bits (the low 52 bits are zero), so fold the
  // high half down before multiplying or every such time lands in the
  // same line.
  std::uint64_t bits;
  std::memcpy(&bits, &t, sizeof(bits));
  bits ^= bits >> 33;
  bits *= 0x9e3779b97f4a7c15ull;
  bits ^= bits >> 29;
  return static_cast<std::size_t>(bits) & (kCacheSize - 1);
}

EventId Scheduler::LinkSlot(std::uint32_t slot, std::uint64_t seq,
                            SimTime t) {
  const std::uint64_t key = ChainKey(seq, slot);

  if (chain_cache_.empty()) chain_cache_.resize(kCacheSize);
  CacheEntry& c = chain_cache_[CacheIndex(t)];
  // A cached tail is usable iff its slot still holds the cached event
  // (seq match) and it is still a tail. Which same-time chain it belongs
  // to does not matter: every chain is internally seq-sorted, and the
  // heap merges chain heads by (time, seq), so the global order stays
  // exact either way. A self-append is impossible: `seq` was freshly
  // assigned and has never been written to the cache.
  if (c.time == t && c.tail_key != kNullKey) {
    SlotMeta& tail = meta_[c.tail_key & kSlotMask];
    if (tail.seq == c.tail_key >> kSlotBits && tail.next_key == kNullKey) {
      tail.next_key = key;
      c.tail_key = key;
      return key;
    }
  }
  // Miss: start a new chain for this timestamp.
  HeapPush(t, key);
  c.time = t;
  c.tail_key = key;
  return key;
}

void Scheduler::HeapPush(SimTime t, std::uint64_t key) {
  // First growth jumps straight to a useful capacity so warmed-up runs
  // never reallocate on the schedule path (sim_scheduler_stress_test pins
  // this with an operator-new override).
  if (heap_.size() == heap_.capacity() && heap_.capacity() < kHeapReserve) {
    heap_.reserve(kHeapReserve);
  }
  heap_.push_back(HeapEntry{t, key});
  HeapSiftUp(heap_.size() - 1);
  ++heap_gen_;
}

EventId Scheduler::ScheduleAt(SimTime t, EventFn fn) {
  if (t < now_) t = now_;
  if (fn.heap_allocated()) ++fn_heap_allocs_;
  const std::uint32_t slot = AcquireSlot();
  FnAt(slot) = std::move(fn);
  const std::uint64_t seq = next_seq_++;
  meta_[slot] = SlotMeta{seq, kNullKey};  // one 16-byte store
  ++live_scheduled_;
  return LinkSlot(slot, seq, t);
}

EventId Scheduler::ScheduleAfter(Duration delay, EventFn fn) {
  if (delay < 0) delay = 0;
  return ScheduleAt(now_ + delay, std::move(fn));
}

bool Scheduler::Cancel(EventId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id & kSlotMask);
  const std::uint64_t seq = id >> kSlotBits;
  if (seq == 0 || slot >= meta_.size() || meta_[slot].seq != seq ||
      !FnAt(slot)) {
    return false;  // never issued, already ran, or already cancelled
  }
  // O(1): destroy the closure now; the dead link is unhooked for free when
  // its timestamp chain is drained (a fully dead chain is dropped by
  // ResolveTop once it reaches the heap top).
  FnAt(slot).Reset();
  --live_scheduled_;
  return true;
}

EventId Scheduler::RescheduleAfter(EventId id, Duration delay) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id & kSlotMask);
  const std::uint64_t seq = id >> kSlotBits;
  if (seq == 0 || slot >= meta_.size() || meta_[slot].seq != seq ||
      !FnAt(slot)) {
    return 0;  // never issued, already ran, or already cancelled
  }
  if (delay < 0) delay = 0;
  const SimTime t = now_ + delay;
  SlotMeta& m = meta_[slot];
  if (m.next_key != kNullKey) {
    // Mid-chain: later links would be lost if this slot were relinked, so
    // detach the closure and re-enter through the normal path (the dead
    // link is unhooked lazily, exactly as a Cancel would leave it).
    EventFn fn = std::move(FnAt(slot));
    --live_scheduled_;
    return ScheduleAt(t, std::move(fn));
  }
  // Chain tail (or sole member): reuse the slot in place under a fresh
  // sequence number. The old chain now ends at this link — any stale
  // reference {old seq, slot} fails its sequence check in the dispatcher
  // and is treated as the chain end without freeing the (live) slot. The
  // old chain's heap entry stays until it reaches the top.
  const std::uint64_t fresh = next_seq_++;
  m.seq = fresh;
  return LinkSlot(slot, fresh, t);
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
  const std::uint32_t slot = static_cast<std::uint32_t>(meta_.size());
  assert(slot < (1ull << kSlotBits) && "too many pending events");
  if ((slot >> kFnChunkBits) == fn_chunks_.size()) {
    fn_chunks_.emplace_back(new std::byte[kFnChunkSize * sizeof(EventFn)]);
  }
  meta_.emplace_back();
  ::new (static_cast<void*>(&FnAt(slot))) EventFn();
  return slot;
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
  const std::size_t last = heap_.size() - 1;
  if (last > 0) {
    heap_[0] = heap_[last];
    heap_.pop_back();
    HeapSiftDown(0);
  } else {
    heap_.pop_back();
  }
  ++heap_gen_;
}

void Scheduler::ResolveTop() {
  // Invariant: every heap entry's key names its chain's current head, so a
  // live head means the top is accurate and the loop is O(1) on the common
  // path. Cancelled heads are unhooked here, amortised against Cancel.
  while (!heap_.empty()) {
    const std::uint32_t head =
        static_cast<std::uint32_t>(heap_[0].key & kSlotMask);
    SlotMeta& m = meta_[head];
    if (m.seq != heap_[0].key >> kSlotBits) {
      // The slot moved on since this link was forged — it was a chain
      // tail rescheduled in place (RescheduleAfter), and the slot now
      // lives in another chain under a newer sequence number (or has
      // since fired and been reacquired). Either way this chain ends
      // here; the slot itself must not be freed.
      PopRootEntry();
      continue;
    }
    if (FnAt(head)) return;
    const std::uint64_t next_key = m.next_key;
    FreeSlot(head);
    if (next_key == kNullKey) {
      PopRootEntry();
    } else {
      heap_[0].key = next_key;
      HeapSiftDown(0);
      ++heap_gen_;
    }
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
  ResolveTop();
  if (TakeRingNext()) {
    const RingEntry e = RingPop();
    ++executed_events_;
    if (exec_hook_) exec_hook_(exec_hook_ctx_, now_, e.seq);
    e.handle.resume();
    return;
  }
  // The ring lost (or is empty), so the next event is the live heap top.
  const HeapEntry top = heap_[0];
  const std::uint32_t head =
      static_cast<std::uint32_t>(top.key & kSlotMask);
  EventFn fn = std::move(FnAt(head));
  SlotMeta& hm = meta_[head];
  const std::uint64_t next_key = hm.next_key;
  hm.seq = 0;  // moved-from slot: free without the redundant Reset
  free_slots_.push_back(head);
  if (next_key == kNullKey) {
    PopRootEntry();
  } else {
    // Chain continues at the same time: bump the key to the new head's
    // sequence so other same-time chains can interleave correctly. The
    // sift is O(1) unless another chain shares this timestamp, and the
    // prefetch hides the stride to the next pop's slot behind this
    // event's execution.
    __builtin_prefetch(&meta_[next_key & kSlotMask]);
    __builtin_prefetch(&FnAt(static_cast<std::uint32_t>(
        next_key & kSlotMask)));
    heap_[0].key = next_key;
    HeapSiftDown(0);
    ++heap_gen_;
  }
  --live_scheduled_;
  assert(top.time >= now_);
  now_ = top.time;
  ++executed_events_;
  if (exec_hook_) exec_hook_(exec_hook_ctx_, now_, top.key >> kSlotBits);
  fn();
}

std::size_t Scheduler::DrainTopChain(std::size_t budget) {
  // The whole heap-top chain is due at one instant: land the clock once,
  // then walk the chain with a single root-key write-through per event —
  // no sift, no ResolveTop, no ring scan unless something interleaves.
  //
  // Three guards keep the order exact:
  //  * `competitor` — the smallest key among same-time sibling chains.
  //    The heap property puts every same-time chain head among the root's
  //    direct children (a deeper entry at the top timestamp would need a
  //    same-time parent, which would itself be such a child), so four
  //    compares bound the whole drain. The moment the chain's next link
  //    exceeds it, the root is sifted back in and the generic loop
  //    arbitrates.
  //  * the ring front — wake-ups posted by drained events carry fresh
  //    sequence numbers and interleave by seq exactly as the generic
  //    dispatcher would order them.
  //  * `heap_gen_` — any structural heap change made from inside a
  //    callback (a new chain pushed, a nested Run) bails out to the
  //    generic loop, which re-resolves from scratch.
  const SimTime T = heap_[0].time;
  assert(T >= now_);
  now_ = T;
  ++heap_gen_;  // nested drains must force the outer one to re-resolve
  std::uint64_t competitor = std::numeric_limits<std::uint64_t>::max();
  const std::size_t nchild = heap_.size() < 5 ? heap_.size() : 5;
  for (std::size_t i = 1; i < nchild; ++i) {
    if (heap_[i].time == T && heap_[i].key < competitor) {
      competitor = heap_[i].key;
    }
  }
  std::uint64_t key = heap_[0].key;
  std::size_t n = 0;
  for (;;) {
    const std::uint64_t seq = key >> kSlotBits;
    if (ring_count_ != 0 && ring_[ring_head_].seq < seq) {
      if (n >= budget) return n;
      const RingEntry e = RingPop();
      ++executed_events_;
      ++n;
      const std::uint64_t gen = heap_gen_;
      if (exec_hook_) exec_hook_(exec_hook_ctx_, now_, e.seq);
      e.handle.resume();
      if (heap_gen_ != gen) return n;
      continue;
    }
    if (competitor < key) return n;  // sibling chain runs first
    if (n >= budget) return n;
    const std::uint32_t slot = static_cast<std::uint32_t>(key & kSlotMask);
    SlotMeta& m = meta_[slot];
    if (m.seq != seq) {
      // Stale link (tail rescheduled in place): chain ends here; the slot
      // lives on elsewhere and must not be freed.
      PopRootEntry();
      return n;
    }
    const std::uint64_t nk = m.next_key;
    if (!FnAt(slot)) {
      // Cancelled: unhook for free, no execution.
      FreeSlot(slot);
      if (nk == kNullKey) {
        PopRootEntry();
        return n;
      }
      if (competitor < nk) {
        heap_[0].key = nk;
        HeapSiftDown(0);
        return n;
      }
      heap_[0].key = nk;
      key = nk;
      continue;
    }
    EventFn fn = std::move(FnAt(slot));
    m.seq = 0;  // moved-from slot: free without the redundant Reset
    free_slots_.push_back(slot);
    // Advance the root past this link *before* running it, so the heap is
    // consistent for anything the callback does.
    bool exit_after = false;
    if (nk == kNullKey) {
      PopRootEntry();
      exit_after = true;
    } else if (competitor < nk) {
      heap_[0].key = nk;
      HeapSiftDown(0);
      exit_after = true;
    } else {
      heap_[0].key = nk;
      __builtin_prefetch(&meta_[nk & kSlotMask]);
      __builtin_prefetch(&FnAt(static_cast<std::uint32_t>(nk & kSlotMask)));
    }
    --live_scheduled_;
    ++executed_events_;
    ++n;
    const std::uint64_t gen = heap_gen_;
    if (exec_hook_) exec_hook_(exec_hook_ctx_, now_, seq);
    fn();
    if (exit_after || heap_gen_ != gen) return n;
    key = nk;
  }
}

bool Scheduler::Step() {
  if (empty()) return false;
  ExecuteNext();
  return true;
}

std::size_t Scheduler::Run(SimTime until, std::size_t max_events) {
  if (until < now_) return 0;
  std::size_t executed = 0;
  while (executed < max_events) {
    if (ring_count_ == 0) {
      ResolveTop();
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
      executed += DrainTopChain(max_events - executed);
      continue;
    }
    // A non-empty ring always has work due at the current instant, which
    // is <= until by the loop invariant.
    ExecuteNext();
    ++executed;
  }
  return executed;
}

}  // namespace wimpy::sim
