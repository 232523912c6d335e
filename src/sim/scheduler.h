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
//  * The pending set is a radix heap of 16-byte `{time, key}` entries,
//    one per scheduled event, where `key` packs {seq:40, slot:24}: a
//    single integer compare breaks time ties FIFO and names the slot.
//    Every push has t >= now() >= the last executed event's time, and
//    non-negative doubles order like their IEEE bits, so each entry sits
//    in the bucket of the highest bit where its time differs from the last
//    *executed* timed event's: a push does no compares, and executing an
//    event from a non-empty bucket rebuckets only that bucket. Bucket 0
//    (entries at exactly that time) is kept in key order, so ties pop FIFO
//    in O(1). Discarding a dead entry and peeking past `Run(until)` never
//    move that reference time, because a later push may land below the
//    entry they looked at.
//  * `Cancel` is O(1): the closure is destroyed and the entry stays until
//    it surfaces as the minimum, where `ResolveTop` frees the slot.
//    `RescheduleAfter` gives the slot a fresh sequence number and pushes
//    a new entry, keeping the closure; the old entry no longer matches
//    the slot's sequence number and is dropped when it surfaces.
//    Accounting (`pending_events`) stays exact and a stale cancel returns
//    false.
//  * `ResumeLater` bypasses the pending set entirely: raw coroutine
//    handles go through a FIFO ring (the fast lane) and are interleaved
//    with timed events by sequence number, preserving the deterministic
//    order while making the dominant wake-up path allocation-free and
//    O(1).
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

#include <array>
#include <bit>
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
  // An empty `fn` or a NaN `t` aborts in every build type.
  EventId ScheduleAt(SimTime t, EventFn fn);

  // Schedules `fn` after `delay` seconds (negative treated as 0, NaN
  // aborts).
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
  // A negative `delay` is treated as 0; a NaN one aborts.
  EventId RescheduleAfter(EventId id, Duration delay);

  // Schedules a coroutine resumption at the current time via the fast
  // lane: the raw handle is pushed onto a FIFO ring (no allocation, no
  // pending-set operation) and drained in (time, sequence) order exactly as if
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
  // the unhooked path costs one predictable branch per executed event
  // (tools/ab.sh bounds bench_engine_micro's BM_SchedulerEventThroughput
  // at 2% against the base commit). Pass (nullptr, nullptr) to detach.
  using ExecuteHook = void (*)(void* ctx, SimTime time, std::uint64_t seq);
  void SetExecuteHook(ExecuteHook hook, void* ctx) {
    exec_hook_ = hook;
    exec_hook_ctx_ = ctx;
  }

  // Introspection counters for tests and benchmarks.
  // Closures whose captures exceeded EventFn::kInlineCapacity and spilled
  // to the heap. The library's own call sites keep this at zero.
  std::uint64_t fn_heap_allocations() const { return fn_heap_allocs_; }
  // Wake-ups that took the fast lane instead of the pending set.
  std::uint64_t fast_lane_resumes() const { return fast_lane_resumes_; }

 private:
  // One pending-set entry per scheduled event. `key` packs {seq:40,
  // slot:24}; an entry whose seq no longer matches its slot's is stale
  // (the event was rescheduled, or fired and its slot was reused).
  struct Entry {
    SimTime time;
    std::uint64_t key;
  };
  struct RingEntry {
    std::coroutine_handle<> handle;
    std::uint64_t seq;
  };

  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  // Times have a clear sign bit, so two differ at most in bit 62.
  static constexpr unsigned kBuckets = 64;
  static constexpr std::uint32_t kNil = ~0u;

  // First reservations, taken on first use. The pending set also holds
  // cancelled and rescheduled entries until they surface: the perfbench
  // workloads peak at 83 (kv), 406 (shard) and 629 (web) entries and at
  // most 563 slots, so only web regrows the entry pool, once. 4096 slots
  // (192 KiB of closures) sits above glibc's default mmap threshold, which
  // keeps the block out of the main heap; 128 or 1024 slots raised
  // kv_read_64n peak RSS by 0.4-0.8 MiB.
  static constexpr std::size_t kEntryReserve = 512;
  static constexpr std::size_t kSlotReserve = 4096;

  static bool EntryLess(const Entry& a, const Entry& b) {
    return a.time < b.time || (a.time == b.time && a.key < b.key);
  }
  // The radix of a time: its IEEE bits with the sign cleared, so -0.0 and
  // +0.0 (which compare equal) share a bucket.
  static std::uint64_t TimeBits(SimTime t) {
    return std::bit_cast<std::uint64_t>(t) & ~(1ull << 63);
  }
  unsigned BucketOf(SimTime t) const {
    return static_cast<unsigned>(std::bit_width(TimeBits(t) ^ last_));
  }

  std::uint32_t AcquireSlot();
  void FreeSlot(std::uint32_t slot) {
    slot_seq_[slot] = 0;  // stale EventIds and entries fail validation
    free_slots_.push_back(slot);
  }
  // True when {seq, slot} names a pending, uncancelled event.
  bool IsLive(std::uint64_t seq, std::uint32_t slot) const {
    return seq != 0 && slot < slot_seq_.size() && slot_seq_[slot] == seq &&
           fns_[slot];
  }
  bool EntryLive(std::uint32_t node) const {
    const std::uint64_t key = entries_[node].key;
    const std::uint32_t slot = static_cast<std::uint32_t>(key & kSlotMask);
    return slot_seq_[slot] == key >> kSlotBits && fns_[slot];
  }

  // Pushes the entry for slot `slot` under sequence number `seq` at time
  // `t` and returns its key (the event's EventId).
  EventId Push(SimTime t, std::uint64_t seq, std::uint32_t slot);
  std::uint32_t AcquireNode();
  void FreeNode(std::uint32_t node) {
    next_[node] = free_node_;
    free_node_ = node;
  }
  // Unlinks bucket 0's head (the caller frees its node).
  void UnlinkHead() {
    head_[0] = next_[head_[0]];
    if (head_[0] == kNil) occupied_ &= ~1ull;
  }
  // Frees a dead entry's node, and its slot if the event was cancelled.
  void Discard(std::uint32_t node);
  // Unlinks and discards every dead entry of bucket `b` (> 0).
  void DropDeadEntries(unsigned b);
  // The minimal entry: bucket 0's head, else a scan of the lowest
  // non-empty bucket. Precondition: the pending set is not empty.
  std::uint32_t FindMin() const;
  // Moves the reference time up to `t`, the minimal entry's time in
  // bucket `BucketOf(t)` > 0, and rebuckets that bucket; its entries at
  // `t` become bucket 0 in key order.
  void Advance(SimTime t);

  // Discards dead entries until `top_` names the minimal entry and that
  // entry is live, or the pending set is empty (`top_ == kNil`).
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

  // Entry pool: `entries_[n]` and its bucket-list link `next_[n]`; free
  // nodes chain from `free_node_` through `next_`.
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> next_;
  std::uint32_t free_node_ = kNil;
  // Bucket b lists the entries whose time first differs from `last_` in
  // bit b-1; bit b of `occupied_` is set when the list is non-empty.
  // Bucket 0 is in key order from its head to `tail0_`.
  std::array<std::uint32_t, kBuckets> head_ = [] {
    std::array<std::uint32_t, kBuckets> heads{};
    heads.fill(kNil);
    return heads;
  }();
  std::uint32_t tail0_ = kNil;
  std::uint64_t occupied_ = 0;
  // TimeBits of the last executed timed event: every entry's are >= it.
  std::uint64_t last_ = 0;
  // The minimal entry when known, else kNil.
  std::uint32_t top_ = kNil;
  std::vector<std::uint32_t> ties_;  // Advance's bucket-0 scratch
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
