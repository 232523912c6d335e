// Discrete-event simulation core.
//
// A `Scheduler` owns the virtual clock and a time-ordered event queue.
// Events scheduled for the same instant execute in scheduling order
// (FIFO by sequence number), which makes every simulation in this library
// fully deterministic for a given seed. Every ScheduleAt / ScheduleAfter /
// ResumeLater call consumes exactly one sequence number, so the global
// execution order is the strict (time, sequence) order of those calls.
//
// Internals (see docs/engine.md):
//
//  * Callbacks are `EventFn` — small-buffer-optimised closures. Each
//    timed event owns a pooled *slot*: its closure in one flat vector and
//    its current sequence number (0 = slot free) in a parallel one. Slot
//    indices recycle through a freelist.
//  * The pending set is one 4-ary min-heap of 16-byte `{time, key}`
//    entries, one per scheduled event, where `key` packs {seq:40, slot:24}:
//    a single integer compare breaks time ties FIFO and names the slot.
//    The measured workloads drain ~1.1 timed events per distinct
//    timestamp and keep a few hundred to a few thousand events pending,
//    so a plain event heap is all the structure their traffic needs.
//  * `Cancel` is O(1): the closure is destroyed and the heap entry stays
//    until it reaches the top, where `ResolveTop` frees the slot.
//    `RescheduleAfter` gives the slot a fresh sequence number and pushes
//    a new entry, keeping the closure; the old entry no longer matches
//    the slot's sequence number and is dropped when it surfaces.
//    Accounting (`pending_events`) stays exact and a stale cancel returns
//    false.
//  * `ResumeLater` bypasses the heap entirely: raw coroutine handles go
//    through a FIFO ring (the fast lane) and are interleaved with timed
//    events by sequence number, preserving the deterministic order while
//    making the dominant wake-up path allocation-free and O(1).
//
// Clock semantics of `Run(until)`: the clock never advances beyond
// `until`, and when the run stops at the time limit — whether because the
// next event lies beyond `until` or because the queue drained before
// reaching it — the clock lands exactly on `until` (when finite).
// Draining an unbounded `Run()` leaves the clock at the last executed
// event.
//
// Higher layers rarely post raw callbacks; they write C++20 coroutine
// processes (see process.h) whose suspensions are implemented on top of
// this queue.
#ifndef WIMPY_SIM_SCHEDULER_H_
#define WIMPY_SIM_SCHEDULER_H_

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/units.h"
#include "sim/event_fn.h"

namespace wimpy::sim {

// Identifies a scheduled event for cancellation. Packed
// {sequence:40, slot:24}; 0 is never a valid id. Sequence numbers are
// globally unique, so an id goes stale the moment its event fires or is
// cancelled, and a stale Cancel is a cheap, exact no-op (returns false)
// instead of corrupting accounting.
using EventId = std::uint64_t;

class Scheduler {
 public:
  Scheduler() = default;

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Current simulated time in seconds.
  SimTime now() const { return now_; }

  // Schedules `fn` at absolute time `t` (clamped to now if in the past).
  // An empty `fn` aborts in every build type.
  EventId ScheduleAt(SimTime t, EventFn fn);

  // Schedules `fn` after `delay` seconds (negative treated as 0).
  EventId ScheduleAfter(Duration delay, EventFn fn);

  // Cancels a pending event in O(1). Returns false if it already ran or
  // was cancelled before.
  bool Cancel(EventId id);

  // Re-arms a pending event at `now + delay`, keeping its closure: the
  // semantic equivalent of Cancel(id) + ScheduleAfter(delay, same fn) —
  // the event consumes a fresh sequence number, so ordering against other
  // events is identical — without destroying and reconstructing the
  // closure (the arm/cancel/re-arm pattern of FairShareServer::Reschedule).
  // Returns the new EventId (the old one goes stale), or 0 if `id`
  // already ran or was cancelled — the caller should then schedule afresh.
  EventId RescheduleAfter(EventId id, Duration delay);

  // Schedules a coroutine resumption at the current time via the fast
  // lane: the raw handle is pushed onto a FIFO ring (no allocation, no
  // heap operation) and drained in (time, sequence) order exactly as if
  // it had been scheduled with ScheduleAt(now(), ...).
  void ResumeLater(std::coroutine_handle<> handle);

  // Drains the queue until it is empty, `until` is passed, or `max_events`
  // have run. The clock never advances beyond `until`; if the run stops at
  // the time limit (next event beyond `until`, or queue drained with
  // `until` finite) the clock lands exactly on `until`. Returns the number
  // of events executed.
  std::size_t Run(SimTime until = std::numeric_limits<SimTime>::infinity(),
                  std::size_t max_events =
                      std::numeric_limits<std::size_t>::max());

  // Executes exactly one event if available. Returns false on empty queue.
  bool Step();

  bool empty() const { return pending_events() == 0; }
  std::size_t pending_events() const {
    return live_scheduled_ + ring_count_;
  }
  std::size_t executed_events() const { return executed_events_; }

  // Opt-in per-event execution hook (obs::Tracer wires this up; see
  // docs/observability.md). Called after the clock lands on the event's
  // time and immediately before its closure or coroutine runs, with the
  // event's execution time and global sequence number. Null by default;
  // the disabled path costs one predictable branch per executed event
  // (pinned <= 2% by bench_engine_micro's BM_SchedulerEventThroughput
  // against BENCH_engine.json). Pass (nullptr, nullptr) to detach.
  using ExecuteHook = void (*)(void* ctx, SimTime time, std::uint64_t seq);
  void SetExecuteHook(ExecuteHook hook, void* ctx) {
    exec_hook_ = hook;
    exec_hook_ctx_ = ctx;
  }

  // Introspection counters for tests and benchmarks.
  // Closures whose captures exceeded EventFn::kInlineCapacity and spilled
  // to the heap. The library's own call sites keep this at zero.
  std::uint64_t fn_heap_allocations() const { return fn_heap_allocs_; }
  // Wake-ups that took the fast lane instead of the heap.
  std::uint64_t fast_lane_resumes() const { return fast_lane_resumes_; }

 private:
  // One heap entry per scheduled event. `key` packs {seq:40, slot:24};
  // an entry whose seq no longer matches its slot's is stale (the event
  // was rescheduled, or fired and its slot was reused).
  struct HeapEntry {
    SimTime time;
    std::uint64_t key;
  };
  struct RingEntry {
    std::coroutine_handle<> handle;
    std::uint64_t seq;
  };

  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;

  // First reservations, taken on first use. The heap also holds cancelled
  // and rescheduled entries until they reach the top: the perfbench
  // workloads peak at 83 (kv), 406 (shard) and 629 (web) heap entries and
  // at most 563 slots, so only web regrows the heap, once. 4096 slots
  // (192 KiB of closures) sits above glibc's default mmap threshold, which
  // keeps the block out of the main heap; 128 or 1024 slots raised
  // kv_read_64n peak RSS by 0.4-0.8 MiB.
  static constexpr std::size_t kHeapReserve = 512;
  static constexpr std::size_t kSlotReserve = 4096;

  static bool EntryLess(const HeapEntry& a, const HeapEntry& b) {
    return a.time < b.time || (a.time == b.time && a.key < b.key);
  }

  std::uint32_t AcquireSlot();
  void FreeSlot(std::uint32_t slot) {
    slot_seq_[slot] = 0;  // stale EventIds and heap entries fail validation
    free_slots_.push_back(slot);
  }
  // True when {seq, slot} names a pending, uncancelled event.
  bool IsLive(std::uint64_t seq, std::uint32_t slot) const {
    return seq != 0 && slot < slot_seq_.size() && slot_seq_[slot] == seq &&
           fns_[slot];
  }

  // Pushes the entry for slot `slot` under sequence number `seq` at time
  // `t` and returns its key (the event's EventId).
  EventId HeapPush(SimTime t, std::uint64_t seq, std::uint32_t slot);
  void HeapSiftUp(std::size_t pos);
  void HeapSiftDown(std::size_t pos);
  void PopRootEntry();

  // Drops stale and cancelled entries off the heap top (freeing the
  // cancelled events' slots) until the heap is empty or its top names a
  // live event.
  void ResolveTop();
  // True when the next event in (time, seq) order is the ring front.
  // Precondition: ResolveTop() ran.
  bool TakeRingNext() const;
  void RingPush(std::coroutine_handle<> handle, std::uint64_t seq);
  RingEntry RingPop();
  void RingGrow();

  // Executes the globally minimal pending event.
  // Precondition: ResolveTop() ran and pending_events() > 0.
  void ExecuteNext();

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::size_t executed_events_ = 0;
  std::size_t live_scheduled_ = 0;

  std::vector<HeapEntry> heap_;
  std::vector<std::uint64_t> slot_seq_;
  std::vector<EventFn> fns_;
  std::vector<std::uint32_t> free_slots_;

  // Fast-lane FIFO ring (power-of-two capacity).
  std::vector<RingEntry> ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_count_ = 0;

  std::uint64_t fn_heap_allocs_ = 0;
  std::uint64_t fast_lane_resumes_ = 0;

  ExecuteHook exec_hook_ = nullptr;
  void* exec_hook_ctx_ = nullptr;
};

}  // namespace wimpy::sim

#endif  // WIMPY_SIM_SCHEDULER_H_
