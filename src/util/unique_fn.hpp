// Small-buffer-optimized move-only callable with an arbitrary signature:
// an inline buffer for small nothrow-movable captures, one heap cell as
// fallback, move-only semantics.  It is the owning counterpart to
// util::FunctionRef: use it wherever a callback is *stored* — simulation
// events (sim::InlineFn is UniqueFn<void()>), node
// completion/abort/failure handlers, observers, fault hooks, the process
// manager's terminal-record handlers — and FunctionRef where a callable
// is only borrowed for the duration of one call.
//
// Compared to std::function it drops the copyability requirement (so
// captures may hold move-only state) and never allocates for captures of
// up to kBufferSize bytes, which covers every handler in this repo
// (a this-pointer plus a couple of pointers/ints).
//
// The object is 56 bytes: the buffer plus the ops pointer, both at
// pointer alignment.  The event queue relies on that size to fit a
// callable and its 8-byte ordering key in one 64-byte slot
// (event_queue.hpp asserts it).  A buffer aligned for std::max_align_t
// would pad the object to 64 bytes and each slot to two cache lines.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace sda::util {

template <typename Sig>
class UniqueFn;

template <typename R, typename... Args>
class UniqueFn<R(Args...)> {
 public:
  /// Inline capture budget: enough for a this-pointer plus several
  /// shared_ptrs.
  static constexpr std::size_t kBufferSize = 48;
  /// Alignment of the inline buffer.  Captures that need more (long
  /// double, over-aligned types) take the heap cell.
  static constexpr std::size_t kBufferAlign = alignof(void*);

  UniqueFn() noexcept = default;
  UniqueFn(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, UniqueFn> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  UniqueFn(F&& f) {  // NOLINT(runtime/explicit)
    construct<D>(std::forward<F>(f));
  }

  UniqueFn(UniqueFn&& other) noexcept { move_from(other); }

  UniqueFn& operator=(UniqueFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  UniqueFn(const UniqueFn&) = delete;
  UniqueFn& operator=(const UniqueFn&) = delete;

  ~UniqueFn() { reset(); }

  /// Invokes the stored callable. Requires *this to be non-empty.
  R operator()(Args... args) {
    return ops_->invoke(&buf_, std::forward<Args>(args)...);
  }

  /// True when a callable is stored.
  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Destroys the stored callable (releasing whatever its captures own)
  /// and leaves *this empty.  No-op when already empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(&buf_);
      ops_ = nullptr;
    }
  }

  /// True when a callable of type D would be stored inline (no allocation).
  template <typename D>
  static constexpr bool stores_inline() noexcept {
    return fits_inline<std::decay_t<D>>;
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    /// Move-constructs the payload into dst and destroys it at src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  /// Inline storage requires a nothrow move so that relocation (and thus
  /// UniqueFn's move operations) can be noexcept.
  template <typename D>
  static constexpr bool fits_inline =
      sizeof(D) <= kBufferSize && alignof(D) <= kBufferAlign &&
      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  struct InlineOps {
    static R invoke(void* p, Args&&... args) {
      return (*static_cast<D*>(p))(std::forward<Args>(args)...);
    }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) D(std::move(*static_cast<D*>(src)));
      static_cast<D*>(src)->~D();
    }
    static void destroy(void* p) noexcept { static_cast<D*>(p)->~D(); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  template <typename D>
  struct HeapOps {
    static D*& ptr(void* p) noexcept { return *static_cast<D**>(p); }
    static R invoke(void* p, Args&&... args) {
      return (*ptr(p))(std::forward<Args>(args)...);
    }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) D*(ptr(src));
    }
    static void destroy(void* p) noexcept {
      delete ptr(p);  // sda-lint: allow(NAKED_NEW) heap-fallback cell
    }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  template <typename D, typename F>
  void construct(F&& f) {
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(&buf_)) D(std::forward<F>(f));
      ops_ = &InlineOps<D>::ops;
    } else {
      // sda-lint: allow(NAKED_NEW) SBO heap-fallback cell, owned by *this
      ::new (static_cast<void*>(&buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &HeapOps<D>::ops;
    }
  }

  void move_from(UniqueFn& other) noexcept {
    if (other.ops_ != nullptr) {
      ops_ = other.ops_;
      ops_->relocate(&buf_, &other.buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(kBufferAlign) std::byte buf_[kBufferSize];
  const Ops* ops_ = nullptr;
};

}  // namespace sda::util
