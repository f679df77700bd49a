// Hot-path allocators: a chunked bump arena and a recycling size-class pool.
//
// Two complementary tools, both aimed at the per-submission allocation storm
// the process manager used to pay (tree nodes, task objects, per-run
// bookkeeping):
//
//  * Arena — a chunked bump allocator with reset-and-reuse.  allocate() is
//    a pointer bump; reset() rewinds every chunk without releasing memory,
//    so a steady-state consumer (task::FlatTree rebuilt per run) touches
//    the global allocator only while its high-water mark is still growing.
//    Arena memory is for trivially-destructible payloads only: reset()
//    runs no destructors.
//
//  * pool_alloc()/pool_free() — per-thread free lists over 16-byte size
//    classes, backing task::TreeNode's class-scope operator new/delete and
//    the pooled SimpleTask factories (via PoolAllocator +
//    std::allocate_shared).  Freeing pushes the block onto the *calling*
//    thread's list, so cross-thread frees are lock-free and safe; the
//    backing chunks are immortal (registered in a never-destroyed global
//    list) so a block freed after its allocating thread exited still points
//    into live memory, and LeakSanitizer sees every chunk as reachable.
//    An exiting thread hands its free lists to a shared orphan list that
//    later refills draw from, so thread churn does not grow the pool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace sda::util {

/// Chunked bump allocator.  Not thread-safe; one arena per owner.
class Arena {
 public:
  /// @p first_chunk_bytes sizes the initial chunk; later chunks double
  /// until kMaxChunkBytes.
  explicit Arena(std::size_t first_chunk_bytes = 4096)
      : next_chunk_bytes_(first_chunk_bytes < 64 ? 64 : first_chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns @p bytes of storage aligned to @p align.  Never returns
  /// nullptr (throws std::bad_alloc on exhaustion like operator new).
  void* allocate(std::size_t bytes, std::size_t align = alignof(std::max_align_t)) {
    if (bytes == 0) bytes = 1;
    if (cur_ < chunks_.size()) {
      // Align the *address*, not the chunk offset: operator new[] storage
      // only guarantees __STDCPP_DEFAULT_NEW_ALIGNMENT__, so requests for
      // wider alignment (cache lines) need the base folded in.
      const auto base =
          reinterpret_cast<std::uintptr_t>(chunks_[cur_].data.get());
      const std::size_t off = static_cast<std::size_t>(
          ((base + used_ + (align - 1)) & ~std::uintptr_t{align - 1}) - base);
      if (off + bytes <= chunks_[cur_].size) {
        used_ = off + bytes;
        total_ += bytes;
        return chunks_[cur_].data.get() + off;
      }
    }
    return allocate_slow(bytes, align);
  }

  /// Typed array of trivially-destructible @p T (reset() runs no dtors).
  template <typename T>
  T* alloc_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena storage is reclaimed without running destructors");
    return static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
  }

  /// Rewinds every chunk; all outstanding pointers become invalid, all
  /// memory stays owned for reuse.
  void reset() noexcept {
    cur_ = 0;
    used_ = 0;
    total_ = 0;
  }

  /// Bytes handed out since the last reset().
  std::size_t bytes_allocated() const noexcept { return total_; }

  /// Bytes of backing storage currently owned (survives reset()).
  std::size_t bytes_reserved() const noexcept {
    std::size_t r = 0;
    for (const Chunk& c : chunks_) r += c.size;
    return r;
  }

 private:
  static constexpr std::size_t kMaxChunkBytes = std::size_t{1} << 20;

  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void* allocate_slow(std::size_t bytes, std::size_t align);

  std::vector<Chunk> chunks_;
  std::size_t cur_ = 0;    ///< chunk currently bumped into
  std::size_t used_ = 0;   ///< bytes consumed in chunks_[cur_]
  std::size_t total_ = 0;  ///< bytes handed out since reset()
  std::size_t next_chunk_bytes_;
};

/// Largest request served from the per-thread size-class pool; bigger
/// blocks fall through to the global allocator.
inline constexpr std::size_t kPoolMaxBytes = 512;

/// Allocates @p bytes from the calling thread's free lists (O(1); refills
/// a list from an immortal chunk when empty).
void* pool_alloc(std::size_t bytes);

/// Returns a pool_alloc() block.  Safe from any thread; the block lands on
/// the *calling* thread's free list.  @p bytes must match the allocation.
void pool_free(void* p, std::size_t bytes) noexcept;

/// Total bytes of immortal pool chunks ever reserved (diagnostics/tests).
std::size_t pool_bytes_reserved() noexcept;

/// std::allocator-compatible adapter over the pool: single-object
/// allocations are pooled, arrays fall through to the global allocator.
/// Used with std::allocate_shared so a SimpleTask and its shared_ptr
/// control block land in one recycled block.
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT(runtime/explicit)

  T* allocate(std::size_t n) {
    if (n == 1) return static_cast<T*>(pool_alloc(sizeof(T)));
    return std::allocator<T>{}.allocate(n);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (n == 1) {
      pool_free(p, sizeof(T));
      return;
    }
    std::allocator<T>{}.deallocate(p, n);
  }

  friend bool operator==(const PoolAllocator&, const PoolAllocator&) noexcept {
    return true;
  }
  friend bool operator!=(const PoolAllocator&, const PoolAllocator&) noexcept {
    return false;
  }
};

}  // namespace sda::util
