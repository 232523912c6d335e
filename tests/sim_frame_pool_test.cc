// Frame pool contract (sim/frame_pool.h, docs/scale.md): 16-byte size
// classes up to 4 KiB, blocks carved from 64 KiB slabs, LIFO reuse per
// class, larger requests straight to ::operator new, a warmed alloc/free
// loop that never reaches the heap, slabs freed at thread exit — and,
// under ASan, no pool at all.
//
// The carving tests run on a fresh thread, whose thread-local cache
// starts empty, so which blocks are carved (and when a slab is taken) is
// known exactly. The test binary replaces global operator new/delete with
// counting versions; counting is on only around the pool calls measured.
#include "sim/frame_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define FRAME_POOL_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FRAME_POOL_TEST_ASAN 1
#endif
#endif

#if defined(FRAME_POOL_TEST_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_news{0};
std::atomic<std::uint64_t> g_deletes{0};

void* CountedNew(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void CountedDelete(void* p) noexcept {
  if (p != nullptr && g_counting.load(std::memory_order_relaxed)) {
    g_deletes.fetch_add(1, std::memory_order_relaxed);
  }
  std::free(p);
}

// Heap calls made while `fn` runs (on this thread or one it joins).
struct HeapCalls {
  std::uint64_t news = 0;
  std::uint64_t deletes = 0;
};

template <typename F>
HeapCalls CountHeapCalls(F&& fn) {
  const std::uint64_t news = g_news.load();
  const std::uint64_t deletes = g_deletes.load();
  g_counting.store(true);
  std::forward<F>(fn)();
  g_counting.store(false);
  return {g_news.load() - news, g_deletes.load() - deletes};
}

template <typename F>
void OnFreshThread(F&& fn) {
  std::thread(std::forward<F>(fn)).join();
}

}  // namespace

// Global replacements (C++ [replacement.functions]). The over-aligned
// forms are left to the library: nothing here asks for them.
void* operator new(std::size_t size) { return CountedNew(size); }
void* operator new[](std::size_t size) { return CountedNew(size); }
void operator delete(void* p) noexcept { CountedDelete(p); }
void operator delete[](void* p) noexcept { CountedDelete(p); }
void operator delete(void* p, std::size_t) noexcept { CountedDelete(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedDelete(p); }

namespace wimpy::sim {
namespace {

#if defined(FRAME_POOL_TEST_ASAN)

// frame_pool.h promises plain new/delete under ASan so every frame is
// poisoned when freed; a recycling pool would hide use-after-free.
TEST(FramePoolTest, CompiledOutUnderAsan) {
  EXPECT_FALSE(kFramePoolEnabled);
  const HeapCalls calls = CountHeapCalls([] {
    for (int i = 0; i < 3; ++i) PoolFree(PoolAlloc(96), 96);
  });
  EXPECT_EQ(calls.news, 3u);
  EXPECT_EQ(calls.deletes, 3u);
  void* p = PoolAlloc(96);
  PoolFree(p, 96);
  EXPECT_TRUE(__asan_address_is_poisoned(p));
}

#else

using internal_pool::BlockBytes;
using internal_pool::kGranularity;
using internal_pool::kMaxPooled;
using internal_pool::kSlabBytes;

TEST(FramePoolTest, EnabledOutsideAsan) { EXPECT_TRUE(kFramePoolEnabled); }

TEST(FramePoolTest, SizesRoundUpTo16ByteClasses) {
  EXPECT_EQ(kGranularity, 16u);
  EXPECT_EQ(BlockBytes(1), 16u);
  EXPECT_EQ(BlockBytes(16), 16u);
  EXPECT_EQ(BlockBytes(17), 32u);
  EXPECT_EQ(BlockBytes(360), 368u);
  EXPECT_EQ(BlockBytes(kMaxPooled), kMaxPooled);
  OnFreshThread([] {
    for (std::size_t n = 1; n <= kMaxPooled; ++n) {
      const std::size_t block = BlockBytes(n);
      ASSERT_EQ(block % kGranularity, 0u) << n;
      ASSERT_GE(block, n);
      ASSERT_LT(block - n, kGranularity) << n;
      // Every size of a class shares one freelist: a block freed at `n`
      // comes back for the class's smallest and largest sizes...
      void* p = PoolAlloc(n);
      PoolFree(p, n);
      void* q = PoolAlloc(block - kGranularity + 1);
      ASSERT_EQ(q, p) << n;
      PoolFree(q, block - kGranularity + 1);
      ASSERT_EQ(PoolAlloc(block), p) << n;
      PoolFree(p, block);
      // ...and never for the next class up.
      if (block < kMaxPooled) {
        void* r = PoolAlloc(block + 1);
        EXPECT_NE(r, p) << n;
        PoolFree(r, block + 1);
      }
    }
  });
}

TEST(FramePoolTest, CarvedBlocksAreAlignedAndNeverOverlap) {
  struct Block {
    std::uintptr_t at;
    std::size_t bytes;
  };
  std::vector<Block> blocks;
  OnFreshThread([&blocks] {
    // ~2,000 blocks of mixed classes, ~4 MiB: dozens of slabs.
    std::uint64_t x = 77;
    for (int i = 0; i < 2000; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      const std::size_t n = 1 + (x >> 33) % kMaxPooled;
      blocks.push_back(
          {reinterpret_cast<std::uintptr_t>(PoolAlloc(n)), BlockBytes(n)});
    }
    for (const Block& b : blocks) {
      PoolFree(reinterpret_cast<void*>(b.at), b.bytes);
    }
  });
  for (const Block& b : blocks) {
    EXPECT_EQ(b.at % __STDCPP_DEFAULT_NEW_ALIGNMENT__, 0u);
  }
  std::sort(blocks.begin(), blocks.end(),
            [](const Block& a, const Block& b) { return a.at < b.at; });
  for (std::size_t i = 1; i < blocks.size(); ++i) {
    EXPECT_LE(blocks[i - 1].at + blocks[i - 1].bytes, blocks[i].at) << i;
  }
}

TEST(FramePoolTest, FreedBlocksAreReusedLifoPerClass) {
  OnFreshThread([] {
    void* a = PoolAlloc(100);
    void* b = PoolAlloc(100);
    void* c = PoolAlloc(100);
    void* other = PoolAlloc(200);
    PoolFree(a, 100);
    PoolFree(b, 100);
    PoolFree(other, 200);  // another class: its own freelist
    PoolFree(c, 100);
    EXPECT_EQ(PoolAlloc(100), c);
    EXPECT_EQ(PoolAlloc(100), b);
    EXPECT_EQ(PoolAlloc(200), other);
    EXPECT_EQ(PoolAlloc(100), a);
  });
}

TEST(FramePoolTest, BlocksAreCarvedFromSlabs) {
  // One slab holds (kSlabBytes - kGranularity) / 48 blocks of 48 bytes
  // (its first 16 bytes link the thread's slab list): carving that many
  // takes one heap block, one more takes the next slab.
  const std::size_t per_slab = (kSlabBytes - kGranularity) / 48;
  OnFreshThread([per_slab] {
    std::vector<void*> blocks;
    blocks.reserve(per_slab + 1);
    const HeapCalls first = CountHeapCalls([&] {
      for (std::size_t i = 0; i < per_slab; ++i) {
        blocks.push_back(PoolAlloc(48));
      }
    });
    EXPECT_EQ(first.news, 1u);
    const HeapCalls second =
        CountHeapCalls([&] { blocks.push_back(PoolAlloc(48)); });
    EXPECT_EQ(second.news, 1u);
    const HeapCalls freed = CountHeapCalls([&] {
      for (void* p : blocks) PoolFree(p, 48);
    });
    EXPECT_EQ(freed.deletes, 0u);  // blocks go back to the freelist
  });
}

TEST(FramePoolTest, SlabsAreFreedAtThreadExit) {
  // Three slabs' worth of live blocks, never freed: the thread's exit
  // returns all three slabs and nothing else the pool holds.
  const std::size_t per_slab = (kSlabBytes - kGranularity) / 48;
  std::uint64_t news = 0;
  const HeapCalls calls = CountHeapCalls([&] {
    OnFreshThread([&] {
      const std::uint64_t before = g_news.load();
      for (std::size_t i = 0; i < 3 * per_slab; ++i) PoolAlloc(48);
      news = g_news.load() - before;
    });
  });
  EXPECT_EQ(news, 3u);
  // std::thread's own bookkeeping may add a pair; the slabs are the rest.
  EXPECT_GE(calls.deletes, 3u);
  EXPECT_EQ(calls.deletes - 3u, calls.news - news);
}

TEST(FramePoolTest, LargeRequestsFallThroughToOperatorNew) {
  OnFreshThread([] {
    // Warm the largest pooled class, so only the fall-through counts.
    PoolFree(PoolAlloc(kMaxPooled), kMaxPooled);
    void* pooled = nullptr;
    const HeapCalls in_pool = CountHeapCalls([&] {
      pooled = PoolAlloc(kMaxPooled);
      PoolFree(pooled, kMaxPooled);
    });
    EXPECT_EQ(in_pool.news, 0u);
    EXPECT_EQ(in_pool.deletes, 0u);
    const HeapCalls large = CountHeapCalls([] {
      void* p = PoolAlloc(kMaxPooled + 1);
      PoolFree(p, kMaxPooled + 1);
      void* q = PoolAlloc(64 * 1024 * 1024);
      PoolFree(q, 64 * 1024 * 1024);
    });
    EXPECT_EQ(large.news, 2u);
    EXPECT_EQ(large.deletes, 2u);
  });
}

TEST(FramePoolTest, WarmedAllocFreeLoopNeverReachesTheHeap) {
  // The serve path's shape: a set of frame sizes allocated together and
  // freed together, over and over. After the first round every block
  // comes off a freelist.
  const std::size_t sizes[] = {24, 72, 136, 360, 376, 424, 1000, 4096};
  OnFreshThread([&sizes] {
    std::vector<std::pair<void*, std::size_t>> live;
    live.reserve(1000 * std::size(sizes));
    auto round = [&] {
      for (int i = 0; i < 1000; ++i) {
        for (std::size_t n : sizes) live.emplace_back(PoolAlloc(n), n);
      }
      for (auto it = live.rbegin(); it != live.rend(); ++it) {
        PoolFree(it->first, it->second);
      }
      live.clear();
    };
    round();  // warm-up: carves the high-water set
    const HeapCalls warmed = CountHeapCalls([&] {
      for (int r = 0; r < 10; ++r) round();
    });
    EXPECT_EQ(warmed.news, 0u);
    EXPECT_EQ(warmed.deletes, 0u);
  });
}

#endif  // FRAME_POOL_TEST_ASAN

}  // namespace
}  // namespace wimpy::sim
