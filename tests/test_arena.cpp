// Hot-path allocators (src/util/arena.*): the chunked bump Arena and the
// per-thread size-class pool behind task::TreeNode's pooled operator new
// and the pooled SimpleTask factories.  The interesting properties are the
// ones ASan/LSan can falsify: reset-and-reuse returns the same storage
// without leaking, cross-thread frees land safely, exited threads' free
// lists are reused, and interleaved tree clone/destroy churn recycles
// blocks instead of growing without bound.
#include "src/util/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "src/task/task.hpp"
#include "src/task/tree.hpp"

namespace {

using sda::util::Arena;

TEST(Arena, AlignmentAndDistinctness) {
  Arena a;
  void* p1 = a.allocate(1, 1);
  void* p8 = a.allocate(8, 8);
  void* p64 = a.allocate(64, 64);
  EXPECT_NE(p1, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p8) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p64) % 64, 0u);
  EXPECT_NE(p1, p8);
  EXPECT_NE(p8, p64);
  EXPECT_GE(a.bytes_allocated(), 1u + 8u + 64u);
}

TEST(Arena, ZeroByteRequestYieldsUsablePointer) {
  Arena a;
  void* p = a.allocate(0);
  EXPECT_NE(p, nullptr);
}

TEST(Arena, GrowsAcrossChunks) {
  // First chunk is 64 bytes; allocating far more forces chunk growth, and
  // every block must stay writable (ASan checks the bounds for us).
  Arena a(64);
  std::vector<unsigned char*> blocks;
  for (int i = 0; i < 200; ++i) {
    auto* p = static_cast<unsigned char*>(a.allocate(48, 16));
    std::memset(p, i & 0xff, 48);
    blocks.push_back(p);
  }
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(blocks[static_cast<std::size_t>(i)][0], i & 0xff);
  }
  EXPECT_GE(a.bytes_reserved(), 200u * 48u);
}

TEST(Arena, ResetReusesStorageWithoutGrowth) {
  Arena a(64);
  for (int i = 0; i < 100; ++i) (void)a.allocate(96, 16);
  const std::size_t reserved = a.bytes_reserved();
  ASSERT_GT(reserved, 0u);
  // Steady state: identical allocation pattern after reset() must be
  // served entirely from the chunks already owned.
  for (int round = 0; round < 10; ++round) {
    a.reset();
    EXPECT_EQ(a.bytes_allocated(), 0u);
    for (int i = 0; i < 100; ++i) (void)a.allocate(96, 16);
    EXPECT_EQ(a.bytes_reserved(), reserved) << "round " << round;
  }
}

TEST(Arena, AllocArrayIsTyped) {
  Arena a;
  double* d = a.alloc_array<double>(32);
  for (int i = 0; i < 32; ++i) d[i] = i * 0.5;
  EXPECT_DOUBLE_EQ(d[31], 15.5);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % alignof(double), 0u);
}

// --- size-class pool --------------------------------------------------------

TEST(Pool, RecyclesBlocks) {
  // Same-size alloc/free cycles must recycle the freed block (the free
  // list is LIFO), so the reserved footprint stays flat.
  void* first = sda::util::pool_alloc(128);
  sda::util::pool_free(first, 128);
  const std::size_t reserved = sda::util::pool_bytes_reserved();
  for (int i = 0; i < 10000; ++i) {
    void* p = sda::util::pool_alloc(128);
    EXPECT_EQ(p, first);
    sda::util::pool_free(p, 128);
  }
  EXPECT_EQ(sda::util::pool_bytes_reserved(), reserved);
}

TEST(Pool, LargeBlocksBypassPool) {
  // Above kPoolMaxBytes the pool falls through to the global allocator;
  // a correct free of such a block must not corrupt the free lists.
  void* p = sda::util::pool_alloc(sda::util::kPoolMaxBytes + 1);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xab, sda::util::kPoolMaxBytes + 1);
  sda::util::pool_free(p, sda::util::kPoolMaxBytes + 1);
}

TEST(Pool, CrossThreadFreeIsSafe) {
  // Blocks allocated here, freed on other threads (and vice versa): the
  // chunks are immortal, so every pointer stays valid; TSan/ASan verify
  // the handoff.  This is exactly the sharded runner's task lifecycle —
  // a SimpleTask allocated on the submit lane dies on the node lane.
  constexpr int kPerThread = 500;
  std::vector<void*> mine;
  mine.reserve(kPerThread);
  for (int i = 0; i < kPerThread; ++i) mine.push_back(sda::util::pool_alloc(64));
  std::thread t([blocks = std::move(mine)] {
    for (void* p : blocks) sda::util::pool_free(p, 64);
  });
  t.join();

  std::vector<void*> theirs;
  std::thread t2([&theirs] {
    for (int i = 0; i < kPerThread; ++i) {
      theirs.push_back(sda::util::pool_alloc(48));
    }
  });
  t2.join();
  for (void* p : theirs) sda::util::pool_free(p, 48);
}

TEST(Pool, ExitedThreadsHandTheirListsOn) {
  // Each short-lived thread allocates and frees one block, then exits.
  // Its free list must outlive it — handed to the shared orphan list and
  // adopted by the next thread's refill — so the reserved footprint does
  // not grow with the number of threads (serve rounds and sharded
  // replications each run on fresh threads).
  constexpr std::size_t kBytes = 336;  // a size class no other test uses
  const auto churn = [] {
    std::thread t([] {
      sda::util::pool_free(sda::util::pool_alloc(kBytes), kBytes);
    });
    t.join();
  };
  churn();
  const std::size_t reserved = sda::util::pool_bytes_reserved();
  for (int i = 0; i < 32; ++i) churn();
  EXPECT_EQ(sda::util::pool_bytes_reserved(), reserved);
}

TEST(Pool, FreeFromLateThreadLocalDestructor) {
  // A thread_local constructed before the thread's first pool use is
  // destroyed after the pool has handed the thread's lists on; its free
  // must still land safely (on the orphan list), and a later thread must
  // be able to reuse that storage.
  constexpr std::size_t kBytes = 368;  // a size class no other test uses
  struct Holder {
    void* block = nullptr;
    ~Holder() { sda::util::pool_free(block, kBytes); }
  };
  std::thread t([] {
    thread_local Holder holder;
    holder.block = sda::util::pool_alloc(kBytes);
  });
  t.join();
  const std::size_t reserved = sda::util::pool_bytes_reserved();
  std::thread t2([] {
    sda::util::pool_free(sda::util::pool_alloc(kBytes), kBytes);
  });
  t2.join();
  EXPECT_EQ(sda::util::pool_bytes_reserved(), reserved);
}

TEST(Pool, AllocateSharedTask) {
  // The pooled SimpleTask factory path: control block + object in one
  // pooled allocation, recycled on release.
  auto t1 = sda::task::make_local_task(1, 0, 0.0, 1.0, 3.0);
  ASSERT_TRUE(t1);
  EXPECT_EQ(t1->id, 1u);
  t1.reset();
  auto t2 = sda::task::make_subtask(2, 7, 0, 0.0, 1.0, 1.0, 9.0);
  ASSERT_TRUE(t2);
  EXPECT_EQ(t2->owner_run, 7u);
}

// --- pooled TreeNode churn --------------------------------------------------

sda::task::TreePtr sample_tree() {
  using namespace sda::task;
  std::vector<TreePtr> stages;
  stages.push_back(make_leaf(0, 1.0, 1.5));
  std::vector<TreePtr> branches;
  branches.push_back(make_leaf(1, 2.0, 2.5));
  branches.push_back(make_leaf(2, 3.0, 3.5));
  stages.push_back(make_parallel(std::move(branches)));
  stages.push_back(make_leaf(0, 0.5, 0.75));
  return make_serial(std::move(stages));
}

TEST(Pool, InterleavedTreeClones) {
  // Clone/destroy interleaving at different lifetimes — the process
  // manager's steady state.  Under ASan this catches any pooled
  // operator new/delete mismatch; the liveness checks catch recycled
  // blocks being handed out while still referenced.
  const sda::task::TreePtr proto = sample_tree();
  std::vector<sda::task::TreePtr> held;
  for (int i = 0; i < 300; ++i) {
    held.push_back(sda::task::clone(*proto));
    if (i % 3 == 0 && !held.empty()) held.erase(held.begin());
    if (i % 7 == 0) held.push_back(sda::task::clone(*proto));
  }
  for (const auto& t : held) {
    ASSERT_TRUE(t);
    EXPECT_TRUE(t->is_serial());
    EXPECT_EQ(t->children.size(), 3u);
    EXPECT_DOUBLE_EQ(t->children[0]->exec_time, 1.0);
  }
  held.clear();
  // After the churn the pool serves a fresh clone from recycled storage
  // without growing (single-threaded here, so the footprint is stable).
  const std::size_t reserved = sda::util::pool_bytes_reserved();
  for (int i = 0; i < 100; ++i) {
    auto t = sda::task::clone(*proto);
  }
  EXPECT_EQ(sda::util::pool_bytes_reserved(), reserved);
}

}  // namespace
