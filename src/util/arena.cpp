#include "src/util/arena.hpp"

#include <cstring>
#include <mutex>

namespace sda::util {

void* Arena::allocate_slow(std::size_t bytes, std::size_t align) {
  // operator new[] storage only guarantees default new-alignment, so the
  // chunk base must be folded into the alignment math for wider requests.
  const auto aligned_off = [align](const Chunk& c) {
    const auto base = reinterpret_cast<std::uintptr_t>(c.data.get());
    return static_cast<std::size_t>(
        ((base + (align - 1)) & ~std::uintptr_t{align - 1}) - base);
  };
  // Advance through already-owned chunks (a reset() arena reuses them in
  // order) before growing.
  while (cur_ + 1 < chunks_.size()) {
    ++cur_;
    used_ = 0;
    const std::size_t off = aligned_off(chunks_[cur_]);
    if (off + bytes <= chunks_[cur_].size) {
      used_ = off + bytes;
      total_ += bytes;
      return chunks_[cur_].data.get() + off;
    }
  }
  std::size_t want = next_chunk_bytes_;
  while (want < bytes + align) want *= 2;
  if (next_chunk_bytes_ < kMaxChunkBytes) next_chunk_bytes_ *= 2;
  chunks_.push_back(Chunk{std::make_unique<std::byte[]>(want), want});
  cur_ = chunks_.size() - 1;
  const std::size_t off = aligned_off(chunks_[cur_]);
  used_ = off + bytes;
  total_ += bytes;
  return chunks_[cur_].data.get() + off;
}

namespace {

constexpr std::size_t kClassStep = 16;
constexpr std::size_t kClassCount = kPoolMaxBytes / kClassStep;  // 32
constexpr std::size_t kChunkBytes = 64 * 1024;

constexpr std::size_t size_class(std::size_t bytes) noexcept {
  return (bytes + kClassStep - 1) / kClassStep;  // 1-based; 0 never used
}

/// A freed block's storage doubles as the free-list link.  Every class
/// is at least 16 bytes, so the head block of an orphaned list also holds
/// the link to the next orphaned list — handing lists over never allocates.
struct FreeNode {
  FreeNode* next;
  FreeNode* next_list;  ///< head of an orphaned list only
};
static_assert(sizeof(FreeNode) <= kClassStep);

/// Immortal backing store shared by every thread's free lists.  The
/// registry is created on first use and never destroyed: a block freed
/// during static teardown (or after its allocating thread exited) still
/// points into live memory, and LeakSanitizer sees every chunk as
/// reachable through this list.
///
/// orphans[cls] stacks whole free lists handed over by exited threads;
/// refill() adopts one before it carves a fresh chunk, so short-lived
/// threads (serve rounds, sharded replications) recycle each other's
/// blocks instead of reserving new chunks every time.
struct ChunkRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<std::byte[]>> chunks;
  std::size_t reserved = 0;
  FreeNode* orphans[kClassCount + 1] = {};
};

ChunkRegistry& registry() {
  // sda-lint: allow(NAKED_NEW) immortal pool registry — intentionally never
  // destroyed so frees during static teardown and from exited threads stay
  // safe; reachable through this static, so LSan reports no leak.
  static ChunkRegistry* reg = new ChunkRegistry();
  return *reg;
}

/// Lifecycle of a thread's cache: no CacheReaper yet, reaper armed, or
/// reaper already run (thread exiting — head[] is bypassed from then on).
enum class CacheState : unsigned char { kUnarmed, kLive, kExited };

/// Trivially destructible, so its storage stays usable by thread_local
/// destructors that run after the thread's CacheReaper.
struct ThreadCache {
  FreeNode* head[kClassCount + 1] = {};
  CacheState state = CacheState::kUnarmed;
};

constinit thread_local ThreadCache tls_cache;

/// Pushes non-empty list @p list onto the orphans of class @p cls.
/// Caller holds reg.mu.
void push_orphan(ChunkRegistry& reg, std::size_t cls, FreeNode* list) {
  list->next_list = reg.orphans[cls];
  reg.orphans[cls] = list;
}

/// Hands the thread's free lists to the registry's orphans at thread exit.
struct CacheReaper {
  CacheReaper() = default;
  CacheReaper(const CacheReaper&) = delete;
  CacheReaper& operator=(const CacheReaper&) = delete;
  ~CacheReaper() {
    ThreadCache& tc = tls_cache;
    ChunkRegistry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    for (std::size_t cls = 1; cls <= kClassCount; ++cls) {
      if (tc.head[cls] != nullptr) push_orphan(reg, cls, tc.head[cls]);
      tc.head[cls] = nullptr;
    }
    tc.state = CacheState::kExited;
  }
};

/// Called before the first block lands in this thread's cache.
void arm(ThreadCache& tc) {
  thread_local CacheReaper reaper;
  (void)reaper;
  tc.state = CacheState::kLive;
}

/// A non-empty free list of class @p cls: an orphaned list when one
/// exists, else a fresh chunk threaded into a list.
FreeNode* take_list(std::size_t cls) {
  ChunkRegistry& reg = registry();
  {
    std::lock_guard<std::mutex> lock(reg.mu);
    if (FreeNode* list = reg.orphans[cls]; list != nullptr) {
      reg.orphans[cls] = list->next_list;
      return list;
    }
  }
  const std::size_t block = cls * kClassStep;
  auto chunk = std::make_unique<std::byte[]>(kChunkBytes);
  std::byte* base = chunk.get();
  FreeNode* head = nullptr;
  for (std::size_t i = kChunkBytes / block; i-- > 0;) {
    auto* node = reinterpret_cast<FreeNode*>(base + i * block);
    node->next = head;
    head = node;
  }
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.chunks.push_back(std::move(chunk));
  reg.reserved += kChunkBytes;
  return head;
}

/// Returns list @p rest (may be null) to the orphans under the lock.
void orphan(std::size_t cls, FreeNode* rest) {
  if (rest == nullptr) return;
  ChunkRegistry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  push_orphan(reg, cls, rest);
}

FreeNode* refill(ThreadCache& tc, std::size_t cls) {
  FreeNode* list = take_list(cls);
  if (tc.state == CacheState::kExited) {
    // Allocation from a thread_local destructor after the reaper ran:
    // nothing would hand this thread's lists over again.
    orphan(cls, list->next);
  } else {
    if (tc.state == CacheState::kUnarmed) arm(tc);
    tc.head[cls] = list->next;
  }
  return list;
}

}  // namespace

void* pool_alloc(std::size_t bytes) {
  if (bytes == 0) bytes = 1;
  if (bytes > kPoolMaxBytes) return ::operator new(bytes);
  const std::size_t cls = size_class(bytes);
  ThreadCache& tc = tls_cache;
  FreeNode* node = tc.head[cls];
  if (node == nullptr) return refill(tc, cls);
  tc.head[cls] = node->next;
  return node;
}

void pool_free(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (bytes == 0) bytes = 1;
  if (bytes > kPoolMaxBytes) {
    ::operator delete(p);
    return;
  }
  const std::size_t cls = size_class(bytes);
  ThreadCache& tc = tls_cache;
  auto* node = static_cast<FreeNode*>(p);
  if (tc.state != CacheState::kLive) [[unlikely]] {
    if (tc.state == CacheState::kExited) {
      node->next = nullptr;
      orphan(cls, node);
      return;
    }
    arm(tc);
  }
  node->next = tc.head[cls];
  tc.head[cls] = node;
}

std::size_t pool_bytes_reserved() noexcept {
  ChunkRegistry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  return reg.reserved;
}

}  // namespace sda::util
