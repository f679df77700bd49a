// Discrete-event simulation engine.
//
// This is the substrate the paper expressed in DeNet [9]: a clock plus an
// ordered set of pending events.  Model components (nodes, workload sources,
// the process manager) schedule callbacks against the engine; Engine::run
// fires them in timestamp order until a time horizon or event budget is hit.
//
// The engine is strictly single-threaded: determinism comes from the
// (time, insertion-order) event ordering, so the same seed always produces
// the same trace.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "src/sim/event_queue.hpp"

namespace sda::sim {

class Engine {
 public:
  /// Default backend: the pooled 4-ary heap ("heap").
  Engine() : queue_(std::make_unique<EventQueue>()) {}

  /// Runs on an explicit timer-queue backend (see make_timer_queue()),
  /// e.g. a registered decorator over the heap; traces and EventIds are
  /// identical as long as it keeps the heap's contract.
  explicit Engine(std::unique_ptr<TimerQueue> queue)
      : queue_(std::move(queue)) {}

  /// Current simulation time. Starts at 0.
  Time now() const noexcept { return now_; }

  /// Schedules @p fn at absolute time @p t. Requires t >= now(); events in
  /// the past indicate a model bug and throw std::logic_error.
  EventId at(Time t, EventFn fn);

  /// Schedules @p fn @p delay time units from now. Requires delay >= 0.
  EventId in(Time delay, EventFn fn);

  /// Cancels a pending event; false when already fired/cancelled/unknown.
  bool cancel(EventId id) { return queue_->cancel(id); }

  /// True when @p id names a scheduled, not-yet-fired event.
  bool pending(EventId id) const noexcept { return queue_->pending(id); }

  /// Runs until the queue drains or @p horizon is passed.  Events scheduled
  /// exactly at the horizon still fire; the clock never exceeds the horizon.
  /// Returns the number of events fired by this call.
  std::uint64_t run_until(Time horizon);

  /// Runs until the queue drains. Returns the number of events fired.
  std::uint64_t run();

  /// Fires exactly one event if any is pending. Returns true if one fired.
  bool step();

  /// Time of the earliest pending event. Requires events_pending() > 0.
  Time next_time() const { return queue_->peek_time(); }

  /// A popped-but-not-yet-invoked event: the sharded fabric (sim::Fabric)
  /// pops events itself so it can consult a slot-keyed side table before
  /// running the callback.  `slot` matches EventQueue::slot_of on the
  /// handle at() returned while the event was pending.
  struct Fired {
    Time time;
    EventFn fn;
    std::uint32_t slot;
  };

  /// Removes the earliest event, advances the clock to it, and counts it
  /// as fired; the caller invokes `fn`.  Requires events_pending() > 0.
  Fired pop_next();

  /// Advances the clock without firing events (forward-only; earlier
  /// times are ignored).  Used by the fabric to land every shard's clock
  /// on the window horizon so time-based per-node statistics agree with
  /// the serial engine.
  void set_now(Time t) noexcept {
    if (t > now_) now_ = t;
  }

  /// Requests run()/run_until() to return after the current event.
  void stop() noexcept { stopped_ = true; }

  /// Number of events fired over the engine's lifetime.
  std::uint64_t events_fired() const noexcept { return fired_; }

  /// Number of events currently pending.
  std::size_t events_pending() const noexcept { return queue_->size(); }

 private:
  std::unique_ptr<TimerQueue> queue_;
  Time now_ = 0.0;
  std::uint64_t fired_ = 0;
  bool stopped_ = false;
};

}  // namespace sda::sim
