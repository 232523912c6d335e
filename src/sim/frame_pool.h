// Thread-local recycling pool for coroutine frames and other fixed-size
// steady-state allocations (docs/scale.md).
//
// Every co_await'd Task and every spawned Process allocates one coroutine
// frame; at 100k+ connections those frames are THE steady-state heap
// traffic of the model layer. Frame sizes are a small fixed set (one per
// coroutine function), so a size-bucketed freelist turns the serve path's
// allocate/free churn into pointer pushes after warm-up — zero heap
// blocks per request (tests/model_alloc_test.cc pins this).
//
// Design:
//  * 16-byte size classes up to 4 KiB; larger requests fall through to
//    ::operator new (rare: no model-layer frame is that big). A block is
//    its request rounded up to the next multiple of 16 — the default new
//    alignment — so a 360-byte frame costs 368 bytes, not a 384-byte
//    bucket plus a malloc header.
//  * Blocks are carved back to back from 64 KiB slabs, one bump pointer
//    shared by all classes; a class only carves when its freelist is
//    empty. A slab is one ::operator new, so a 100k-frame high-water set
//    costs a few hundred heap blocks instead of one per frame.
//  * Thread-local caches, no locks and no cross-thread coordination:
//    replications are single-threaded by contract (sim/replication.h),
//    so a frame is freed on the thread that allocated it and the pool
//    adds no synchronization the TSan build would have to reason about.
//    A block freed on a foreign thread (harmless: sweeps reuse worker
//    threads) simply migrates to that thread's cache; it must not
//    outlive the thread that carved it.
//  * Memory is retained until thread exit — the high-water set of a
//    replication, reused by every subsequent replication on the worker —
//    when the thread's slabs are freed.
//
// Under ASan the pool is compiled out (plain new/delete) so recycling
// does not mask use-after-free of coroutine frames; kFramePoolEnabled
// says which build this is (tests/sim_frame_pool_test.cc pins both).
#ifndef WIMPY_SIM_FRAME_POOL_H_
#define WIMPY_SIM_FRAME_POOL_H_

#include <cstddef>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define WIMPY_FRAME_POOL_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define WIMPY_FRAME_POOL_DISABLED 1
#endif
#endif

namespace wimpy::sim {

#if defined(WIMPY_FRAME_POOL_DISABLED)

inline constexpr bool kFramePoolEnabled = false;

inline void* PoolAlloc(std::size_t bytes) {
  return ::operator new(bytes == 0 ? 1 : bytes);
}
inline void PoolFree(void* p, std::size_t /*bytes*/) noexcept {
  ::operator delete(p);
}

#else

inline constexpr bool kFramePoolEnabled = true;

namespace internal_pool {

inline constexpr std::size_t kGranularity = 16;
inline constexpr std::size_t kMaxPooled = 4096;
inline constexpr std::size_t kClasses = kMaxPooled / kGranularity;
inline constexpr std::size_t kSlabBytes = 64 * 1024;
static_assert(kGranularity % __STDCPP_DEFAULT_NEW_ALIGNMENT__ == 0,
              "carved blocks must keep the default new alignment");

struct FreeNode {
  FreeNode* next;
};

// Bytes a pooled request of `bytes` (1..kMaxPooled) occupies.
constexpr std::size_t BlockBytes(std::size_t bytes) {
  return (bytes + kGranularity - 1) / kGranularity * kGranularity;
}

inline std::size_t ClassOf(std::size_t bytes) {
  return (bytes + kGranularity - 1) / kGranularity - 1;
}

struct ThreadCache {
  FreeNode* classes[kClasses] = {};
  // Slabs are linked through their first word; blocks are carved from
  // [bump, bump_end) of the newest one. A slab tail too small for the
  // next block is abandoned (less than 4 KiB per 64 KiB slab).
  FreeNode* slabs = nullptr;
  char* bump = nullptr;
  char* bump_end = nullptr;

  void* Carve(std::size_t block) {
    if (static_cast<std::size_t>(bump_end - bump) < block) {
      auto* slab = static_cast<FreeNode*>(::operator new(kSlabBytes));
      slab->next = slabs;
      slabs = slab;
      bump = reinterpret_cast<char*>(slab) + kGranularity;
      bump_end = reinterpret_cast<char*>(slab) + kSlabBytes;
    }
    void* p = bump;
    bump += block;
    return p;
  }

  ~ThreadCache() {
    while (slabs != nullptr) {
      FreeNode* next = slabs->next;
      ::operator delete(slabs);
      slabs = next;
    }
  }
};

inline ThreadCache& Cache() {
  thread_local ThreadCache cache;
  return cache;
}

}  // namespace internal_pool

inline void* PoolAlloc(std::size_t bytes) {
  if (bytes == 0) bytes = 1;
  if (bytes > internal_pool::kMaxPooled) return ::operator new(bytes);
  const std::size_t c = internal_pool::ClassOf(bytes);
  auto& cache = internal_pool::Cache();
  if (internal_pool::FreeNode* node = cache.classes[c]) {
    cache.classes[c] = node->next;
    return node;
  }
  return cache.Carve(internal_pool::BlockBytes(bytes));
}

inline void PoolFree(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (bytes == 0) bytes = 1;
  if (bytes > internal_pool::kMaxPooled) {
    ::operator delete(p);
    return;
  }
  auto* node = static_cast<internal_pool::FreeNode*>(p);
  auto& cache = internal_pool::Cache();
  const std::size_t c = internal_pool::ClassOf(bytes);
  node->next = cache.classes[c];
  cache.classes[c] = node;
}

#endif  // WIMPY_FRAME_POOL_DISABLED

// Minimal allocator over the pool, for containers and control blocks
// that live on the steady-state path (e.g. the Process shared state via
// std::allocate_shared).
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(PoolAlloc(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    PoolFree(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace wimpy::sim

#endif  // WIMPY_SIM_FRAME_POOL_H_
