// Discrete-event simulation core.
//
// A `Scheduler` owns the virtual clock and a time-ordered event queue.
// Events scheduled for the same instant execute in scheduling order
// (FIFO by sequence number), which makes every simulation in this library
// fully deterministic for a given seed. Every ScheduleAt / ScheduleAfter /
// ResumeLater call consumes exactly one sequence number, so the global
// execution order is the strict (time, sequence) order of those calls.
//
// Internals are built for the hot path (see docs/engine.md):
//
//  * Callbacks are `EventFn` — small-buffer-optimised closures. Storage
//    is SoA: the hot per-event metadata (sequence number + chain link,
//    16 bytes) lives in `meta_`, packed four to a cache line, while the
//    48-byte closure payload sits in a parallel chunked store and is
//    only touched twice per event (store on schedule, move-out on fire).
//    Chunking means growth never relocates live closures.
//  * The pending set is two-tiered. A hierarchical timing wheel
//    (4 levels x 256 buckets, 1 µs tick) absorbs the dense short-delay
//    traffic that dominates web runs — insertion is O(1), no comparisons.
//    A 4-ary min-heap of *timestamp chains* is the overflow/frontier
//    tier: due and near-due chains, far-future chains beyond the wheel
//    horizon (~4300 s of lookahead), and non-finite timestamps. Wheel
//    buckets are promoted wholesale into the heap before the clock can
//    reach them, so the heap comparator — (time, key), key packing
//    {seq:40, slot:24} — restores the exact global order and the wheel
//    never has to be ordered internally.
//  * Events at an already-pending timestamp append to that timestamp's
//    chain in O(1) (found via a small lossy cache; a miss just starts
//    another chain for the same instant, which the heap merges back in
//    sequence order), so wheel/heap size tracks the number of distinct
//    pending *times*, not events.
//  * `Run` drains each same-timestamp chain as one *big step*: the whole
//    chain executes without re-touching the heap between events (one
//    key write-through per event, no sift), falling back to the generic
//    single-event path only when another same-time chain, a fast-lane
//    wake-up, or a mutation from inside a callback interleaves.
//  * `Cancel` is O(1): the event's closure is destroyed and its slot
//    marked dead; the chain link is skipped for free when its timestamp
//    is reached. Accounting (`pending_events`) stays exact — there is no
//    hash-set tombstone scheme and a stale cancel returns false.
//  * `ResumeLater` bypasses both tiers entirely: raw coroutine handles go
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
#include <memory>
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
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Current simulated time in seconds.
  SimTime now() const { return now_; }

  // Schedules `fn` at absolute time `t` (clamped to now if in the past).
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
  // closure. When the event is the tail of its timestamp chain (the
  // overwhelmingly common case for the arm/cancel/re-arm pattern of
  // FairShareServer::Reschedule), its slot is reused in place, saving the
  // slot free/acquire pair and leaving no dead link behind in the old
  // chain. The new chain enters whichever tier (wheel or heap) the new
  // timestamp calls for, independent of where the old one lived. Returns
  // the new EventId (the old one goes stale), or 0 if `id` already ran or
  // was cancelled — the caller should then schedule afresh.
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
  // Timestamp chains that entered through the timing wheel (vs the heap).
  std::uint64_t wheel_inserts() const { return wheel_inserts_; }
  // Bucket promotions: one per wheel bucket moved wholesale to the heap.
  std::uint64_t wheel_promotions() const { return wheel_promotions_; }
  // Chains that spilled straight to the heap because their timestamp lay
  // beyond the wheel horizon (or was not finite).
  std::uint64_t wheel_overflow_spills() const { return wheel_overflow_; }
  // Chains currently resident in wheel buckets (not yet promoted).
  std::size_t wheel_resident_chains() const { return wheel_chains_; }

  // Static wheel geometry, for benchmark context and diagnostics.
  struct WheelGeometry {
    unsigned levels;
    unsigned buckets_per_level;
    double tick_seconds;
    std::uint64_t horizon_ticks;  // exclusive: beyond this -> heap
  };
  static constexpr WheelGeometry wheel_geometry() {
    return {kWheelLevels, kWheelBuckets, kTickSeconds,
            1ull << (kWheelBits * kWheelLevels)};
  }

 private:
  // One heap entry per pending timestamp chain. `key` packs
  // {seq:40, slot:24} of the chain's current head, so a single integer
  // compare breaks time ties FIFO and names the head slot.
  struct HeapEntry {
    SimTime time;
    std::uint64_t key;
  };
  // Hot per-event metadata, four to a cache line (SoA: the closure
  // payload lives in the parallel chunked store, see FnAt). `seq` is the
  // event's unique sequence number (0 = slot free); an empty FnAt(slot)
  // on an occupied slot marks a cancelled event awaiting cheap removal
  // when its timestamp is reached. `next_key` is the full chain key
  // {seq:40, slot:24} of the next same-time event, or kNullKey at the
  // chain tail.
  struct SlotMeta {
    std::uint64_t seq = 0;
    std::uint64_t next_key = kNullKey;
  };
  // One wheel-resident timestamp chain: the same (time, key) payload a
  // heap entry carries, plus an intrusive link to the next chain in the
  // same bucket (buckets are unordered singly linked lists; `next` doubles
  // as the node freelist link).
  struct WheelNode {
    SimTime time;
    std::uint64_t key;
    std::uint32_t next;
  };
  struct RingEntry {
    std::coroutine_handle<> handle;
    std::uint64_t seq;
  };
  // Lossy map from timestamp to the tail of a pending chain at that time.
  // A stale entry is detected by checking the slot still holds the cached
  // sequence number and is still a tail; a miss merely starts a second
  // chain for the same instant. 16 bytes — `tail_key` is the tail's full
  // chain key {seq:40, slot:24}, so hit validation and update are one
  // load and one store each.
  struct CacheEntry {
    SimTime time = 0.0;
    std::uint64_t tail_key = kNullKey;
  };

  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static constexpr std::uint64_t kNullKey = 0;  // real keys are >= 1<<24
  static constexpr std::size_t kCacheSize = 512;  // power of two

  // Closure payloads live in fixed-size chunks (4096 x 48 B = 192 KiB)
  // indexed by slot. Unlike a flat vector, growing by a chunk never
  // move-relocates the EventFns already in flight — with 100k+ pending
  // events that relocation storm used to dominate the schedule path.
  // Chunks are raw storage: a slot's EventFn is placement-new'd the
  // first time the slot is acquired (slots below the high-water mark
  // stay constructed, empty, across freelist reuse; the destructor
  // destroys exactly [0, meta_.size())), so a fresh chunk costs one
  // allocation instead of a 4096-element value-initialisation sweep.
  static constexpr unsigned kFnChunkBits = 12;
  static constexpr std::size_t kFnChunkSize = 1u << kFnChunkBits;

  // Timing-wheel geometry: 2 levels of 256 buckets at a 1 µs tick.
  // Level L spans ticks [2^(8L), 2^(8(L+1))) ahead of the clock, so the
  // horizon is 2^16 ticks ≈ 65.5 ms of lookahead. The wheel exists for
  // the dense short-delay traffic the serving benches generate (µs–ms
  // service and network hops); longer timers — TIME_WAIT churn,
  // keepalives, sweep deadlines — are sparse, usually cancelled, and go
  // straight to the overflow heap where a push/lazy-pop is cheaper than
  // riding a bucket through promotion. Ticks that do not fit (inf/NaN)
  // overflow to the heap as well.
  static constexpr unsigned kWheelBits = 8;
  static constexpr std::uint32_t kWheelBuckets = 1u << kWheelBits;
  static constexpr unsigned kWheelLevels = 2;
  static constexpr double kTickSeconds = 1e-6;
  static constexpr double kInvTick = 1e6;
  // Ticks must survive the double->uint64 conversion exactly; 2^53 is
  // the last integer doubles can still count to, far past the horizon.
  static constexpr double kTickLimit = 9007199254740992.0;  // 2^53
  static constexpr std::uint64_t kMaxTick =
      std::numeric_limits<std::uint64_t>::max();
  static constexpr std::uint32_t kNilNode = 0xffffffffu;

  static bool EntryLess(const HeapEntry& a, const HeapEntry& b) {
    return a.time < b.time || (a.time == b.time && a.key < b.key);
  }
  static std::size_t CacheIndex(SimTime t);
  // Floor tick of a timestamp; kMaxTick for NaN/inf/past-2^53 values.
  static std::uint64_t TickOf(SimTime t) {
    const double scaled = t * kInvTick;
    if (!(scaled < kTickLimit)) return kMaxTick;  // NaN-safe form
    return scaled <= 0.0 ? 0 : static_cast<std::uint64_t>(scaled);
  }

  std::uint32_t AcquireSlot();
  // Links an occupied slot (seq already assigned) into the chain/cache/
  // tier structures at time `t` and returns its chain key.
  EventId LinkSlot(std::uint32_t slot, std::uint64_t seq, SimTime t);
  EventFn& FnAt(std::uint32_t slot) {
    return reinterpret_cast<EventFn*>(
        fn_chunks_[slot >> kFnChunkBits].get())[slot & (kFnChunkSize - 1)];
  }
  const EventFn& FnAt(std::uint32_t slot) const {
    return reinterpret_cast<const EventFn*>(
        fn_chunks_[slot >> kFnChunkBits].get())[slot & (kFnChunkSize - 1)];
  }
  void FreeSlot(std::uint32_t slot) {
    FnAt(slot).Reset();
    meta_[slot].seq = 0;  // stale EventIds and cache entries fail validation
    free_slots_.push_back(slot);
  }

  // Starts a new chain headed by (t, key) in whichever tier its distance
  // from the clock calls for.
  void StartChain(SimTime t, std::uint64_t key);
  void HeapPush(SimTime t, std::uint64_t key);
  void WheelInsert(unsigned level, std::uint64_t tick, SimTime t,
                   std::uint64_t key);
  // Exact lower bound (in ticks) on the earliest wheel-resident chain;
  // also reports which (level, bucket) attains it. Precondition:
  // wheel_chains_ > 0.
  std::uint64_t WheelMinLowerBound(unsigned* level, std::uint32_t* bucket)
      const;
  // Moves one bucket's chains wholesale into the heap and refreshes the
  // cached wheel lower bound.
  void PromoteBucket(unsigned level, std::uint32_t bucket);
  void AdvanceClock(SimTime t) {
    now_ = t;
    cursor_tick_ = TickOf(t);
  }

  void HeapSiftUp(std::size_t pos);
  void HeapSiftDown(std::size_t pos);
  void PopRootEntry();

  // Drops cancelled events off the top chain (freeing their slots) until
  // the heap is empty or its top names a live chain head.
  void ResolveTop();
  // Promotes every wheel bucket that could precede the heap top and
  // resolves cancelled heads. Postcondition: the heap top names a live
  // chain head that is globally minimal among timed events, or the heap
  // AND wheel are both empty.
  void PrepareNext();

  // True when the next event in (time, seq) order is the ring front.
  // Precondition: PrepareNext() ran.
  bool TakeRingNext() const;
  void RingPush(std::coroutine_handle<> handle, std::uint64_t seq);
  RingEntry RingPop();
  void RingGrow();

  // Executes the globally minimal pending event.
  // Precondition: pending_events() > 0.
  void ExecuteNext();
  // Big-step drain: executes up to `budget` events off the heap-top
  // timestamp chain without re-touching the heap between events,
  // interleaving ring wake-ups by sequence number. Returns to the generic
  // loop (with the heap left valid) as soon as another chain, a budget
  // limit, or a callback-made structural change interleaves.
  // Precondition: PrepareNext() ran, heap top live, budget >= 1.
  std::size_t DrainTopChain(std::size_t budget);

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::size_t executed_events_ = 0;
  std::size_t live_scheduled_ = 0;

  std::vector<HeapEntry> heap_;
  std::vector<SlotMeta> meta_;
  std::vector<std::unique_ptr<std::byte[]>> fn_chunks_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<CacheEntry> chain_cache_;

  // Timing wheel: per-(level, bucket) chain-list heads, a 256-bit
  // occupancy bitmap per level, and a pooled node array with an intrusive
  // freelist. `cursor_tick_` mirrors TickOf(now_); the promotion rule in
  // PrepareNext guarantees the cursor never enters an occupied bucket's
  // tick window, so every occupied bucket's unwrapped lower bound is
  // exact and strictly ahead of the clock. `wheel_next_lb_tick_` caches a
  // conservative (never above the true) lower bound — in bucket-window
  // starts, like WheelMinLowerBound — so the per-event cost of the wheel
  // on the drain path is one compare.
  std::vector<std::uint32_t> bucket_head_;  // kWheelLevels * kWheelBuckets
  std::uint64_t occupancy_[kWheelLevels][kWheelBuckets / 64] = {};
  std::uint32_t level_chains_[kWheelLevels] = {};  // resident chains/level
  std::vector<WheelNode> nodes_;
  std::uint32_t free_node_ = kNilNode;
  std::uint64_t cursor_tick_ = 0;
  std::uint64_t wheel_next_lb_tick_ = kMaxTick;
  std::size_t wheel_chains_ = 0;

  // Bumped on every heap structural change (push, pop, promotion, root
  // advance) so DrainTopChain can detect callback-made mutations and fall
  // back to the generic path.
  std::uint64_t heap_gen_ = 0;

  // Fast-lane FIFO ring (power-of-two capacity).
  std::vector<RingEntry> ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_count_ = 0;

  std::uint64_t fn_heap_allocs_ = 0;
  std::uint64_t fast_lane_resumes_ = 0;
  std::uint64_t wheel_inserts_ = 0;
  std::uint64_t wheel_promotions_ = 0;
  std::uint64_t wheel_overflow_ = 0;

  ExecuteHook exec_hook_ = nullptr;
  void* exec_hook_ctx_ = nullptr;
};

}  // namespace wimpy::sim

#endif  // WIMPY_SIM_SCHEDULER_H_
