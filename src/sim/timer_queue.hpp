// The timer-queue interface the discrete-event engine schedules against.
//
// sim::TimerQueue: push a callback at an absolute time, cancel by handle,
// pop the earliest.  The simulator ships one backend, "heap" — the pooled
// 4-ary min-heap (sim::EventQueue), O(log n) push/pop.  The interface and
// its self-registering registry (util::Registry, the same pattern as the
// strategy registries) stay as a seam: a decorator registered through
// register_timer_queue and named in ExperimentConfig::timer_queue wraps
// the heap in every serial and per-shard engine, e.g. to count or time
// queue operations without touching library code.
//
// Determinism contract: a backend must pop events in exactly
// (time, insertion-sequence) order and hand out the heap's EventIds (its
// slot slab, detail::SlotPool in event_queue.hpp, fixes their layout; a
// decorator keeps them by forwarding).  Identical
// push/cancel/pop sequences then produce identical EventId values and slot
// indices — which is why run fingerprints are bit-identical with or
// without a decorator, and why the sharded fabric's slot-keyed side
// tables (sim::Fabric) keep working.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "src/util/registry.hpp"
#include "src/util/unique_fn.hpp"

namespace sda::sim {

/// Simulation timestamps. The paper's unit is the mean local-task execution
/// time (mu_local = 1).
using Time = double;

/// Move-only callable for simulation events: captures up to 48 bytes
/// live inline, so scheduling an event does not allocate.
using InlineFn = util::UniqueFn<void()>;

/// Callback executed when an event fires.
using EventFn = InlineFn;

/// Opaque handle identifying a scheduled event; used for cancellation.
/// Packs (generation << 32 | slot + 1); a handle outlives its event
/// harmlessly because the slot's generation moves on when it is freed.
struct EventId {
  std::uint64_t value = 0;

  friend bool operator==(EventId a, EventId b) noexcept {
    return a.value == b.value;
  }
  /// A default-constructed id never names a live event.
  explicit operator bool() const noexcept { return value != 0; }
};

/// Priority queue of timed callbacks — the Engine's backend interface.
class TimerQueue {
 public:
  virtual ~TimerQueue() = default;

  /// Schedules @p fn at absolute time @p t; returns a handle for cancel().
  virtual EventId push(Time t, EventFn fn) = 0;

  /// Cancels a pending event, destroying its callable immediately.
  /// Returns false when the handle is unknown, already fired, or already
  /// cancelled; true when the event was live.
  virtual bool cancel(EventId id) = 0;

  /// True when a handle names a scheduled, not-yet-fired event.
  virtual bool pending(EventId id) const noexcept = 0;

  /// True when no live events remain.
  virtual bool empty() const noexcept = 0;

  /// Number of live (scheduled, not-yet-fired, not-cancelled) events.
  virtual std::size_t size() const noexcept = 0;

  /// Time of the earliest live event. Requires !empty().
  virtual Time peek_time() const = 0;

  /// pop result carrying the pool slot the event occupied.  The slot is
  /// recycled by the time this returns, so it is useful only as a key into
  /// caller-side side tables populated at push time (see sim::Fabric).
  struct Popped {
    Time time;
    EventFn fn;
    std::uint32_t slot;
  };

  /// Removes and returns the earliest live event, reporting the slot index
  /// it occupied.  Requires !empty().
  virtual Popped pop_slot() = 0;

  /// SDA_VALIDATE oracle: full structural self-check; O(n); aborts with a
  /// structured dump on any violation (see core/invariants.hpp).
  virtual void validate() const = 0;

  /// Registry spelling of this backend ("heap", or a registered name).
  virtual const char* backend_name() const noexcept = 0;

  /// Removes and returns the earliest live event as (time, callback).
  /// Requires !empty().
  std::pair<Time, EventFn> pop() {
    Popped p = pop_slot();
    return {p.time, std::move(p.fn)};
  }

  /// Slot index a live handle from push() occupies — the side-table key
  /// matching Popped::slot.  Meaningful only while the event is pending.
  static constexpr std::uint32_t slot_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id.value & 0xffffffffu) - 1;
  }
};

// --- backend registry -----------------------------------------------------
//
// Same shape (and same generic machinery) as the strategy registries: the
// built-in "heap" self-registers on first use; register_timer_queue adds a
// backend (typically a decorator over make_timer_queue("heap")) that
// ExperimentConfig::timer_queue can then name, serial and sharded alike.
// register_timer_queue is not thread-safe against concurrent
// make_timer_queue calls: register custom backends up front.

using TimerQueueFactory =
    util::UniqueFn<std::unique_ptr<TimerQueue>(const std::string&)>;

/// Registers a backend under @p name.  Throws std::invalid_argument when
/// the name (or prefix) is already registered.
void register_timer_queue(const std::string& name, TimerQueueFactory factory,
                          util::NameMatch match = util::NameMatch::kExact,
                          const std::string& display = {});

/// Factory: "heap" plus anything registered (case-insensitive).
/// Throws std::invalid_argument on unknown names, listing the registered
/// backends and suggesting near-misses.
std::unique_ptr<TimerQueue> make_timer_queue(const std::string& name);

}  // namespace sda::sim
