#include "src/sim/event_queue.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/core/invariants.hpp"

namespace sda::sim {

namespace oracle = core::invariants;

namespace detail {

std::uint32_t SlotPool::alloc_slot_grow() {
  if (slot_count_ >= kSlotMask) {  // kSlotMask itself is the list terminator
    throw std::length_error("TimerQueue: too many concurrent events");
  }
  if (slot_count_ == slot_capacity()) {
    chunks_.push_back(std::make_unique<Slot[]>(
        chunks_.empty() ? kFirstChunkSize : kChunkSize));
  }
  return slot_count_++;
}

}  // namespace detail

void EventQueue::sift_up(std::size_t pos) noexcept {
  const HeapEntry e = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!earlier(e, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = e;
}

void EventQueue::sift_down(std::size_t pos) noexcept {
  // Bottom-up variant: walk the min-child path all the way to a leaf
  // (3 sibling compares per level, no compare against e), then bubble e up
  // from the leaf.  The displaced element is always the old heap tail, which
  // almost always belongs near the bottom, so the bubble-up is O(1) expected
  // and the per-level compare against e is saved.
  const HeapEntry e = heap_[pos];
  const std::size_t n = heap_.size();
  std::size_t hole = pos;
  for (;;) {
    const std::size_t first = 4 * hole + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    heap_[hole] = heap_[best];
    hole = best;
  }
  while (hole > pos) {
    const std::size_t parent = (hole - 1) / 4;
    if (!earlier(e, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = e;
}

void EventQueue::pop_root() noexcept {
  const std::size_t last = heap_.size() - 1;
  if (last > 0) {
    heap_[0] = heap_[last];
    heap_.pop_back();
    sift_down(0);
  } else {
    heap_.pop_back();
  }
}

void EventQueue::skim() noexcept {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    if (slot_at(entry_slot(top.key)).key == top.key) break;  // live root
    pop_root();  // orphaned by cancel (or by slot reuse after it)
  }
}

void EventQueue::validate() const {
  std::size_t live_seen = 0;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    if (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (earlier(heap_[i], heap_[parent])) {
        oracle::fail("event-queue-heap-order",
                     oracle::Dump()
                         .integer("index", static_cast<long long>(i))
                         .num("entry_time", heap_[i].time)
                         .num("parent_time", heap_[parent].time)
                         .integer("size", static_cast<long long>(heap_.size())));
      }
    }
    const Slot& s = slot_at(entry_slot(heap_[i].key));
    if (s.key == heap_[i].key) ++live_seen;
  }
  if (live_seen != live_) {
    oracle::fail("event-queue-live-count",
                 oracle::Dump()
                     .integer("live_counter", static_cast<long long>(live_))
                     .integer("live_entries", static_cast<long long>(live_seen))
                     .integer("heap_size", static_cast<long long>(heap_.size())));
  }
  if (live_ > 0) {
    // skim() runs after every cancel/pop, so a non-empty queue's root
    // must be live — peek_time()/pop() rely on it.
    const Slot& root = slot_at(entry_slot(heap_.front().key));
    if (root.key != heap_.front().key) {
      oracle::fail("event-queue-orphaned-root",
                   oracle::Dump().num("root_time", heap_.front().time));
    }
  }
}

void EventQueue::oracle_after_mutation() {
  // Full O(n) validation on every mutation would turn the stress tests
  // quadratic; a deterministic cadence (every 64th mutation, plus every
  // mutation while the queue is small) still corners corruption within
  // one sweep of the structure.
  ++mutations_;
  if (live_ <= 64 || (mutations_ & 63) == 0) validate();
}

EventId EventQueue::push(Time t, EventFn fn) {
  if (oracle::enabled() && std::isnan(t)) {
    // A NaN timestamp compares false against everything, silently
    // wrecking heap order; catch it at the door.
    oracle::fail("event-queue-nan-time",
                 oracle::Dump().integer(
                     "live", static_cast<long long>(live_)));
  }
  const std::uint64_t key = bind_slot(std::move(fn));
  heap_.push_back(HeapEntry{t, key});
  sift_up(heap_.size() - 1);
  // Lower the pop watermark: a push below the last popped time is legal
  // for a standalone queue (the Engine's clock is what's monotonic), and
  // the next pop may legitimately return as early as this.
  if (t < last_pop_time_) last_pop_time_ = t;
  if (oracle::enabled()) oracle_after_mutation();
  return id_for(key);
}

bool EventQueue::cancel(EventId id) {
  Slot* live = find_live(id);
  if (live == nullptr) return false;
  live->fn.reset();  // release captures now, not when the entry surfaces
  free_slot(entry_slot(live->key));  // orphans the heap entry
  --live_;
  skim();  // the orphan may be sitting at the root
  if (oracle::enabled()) oracle_after_mutation();
  return true;
}

Time EventQueue::peek_time() const {
  if (live_ == 0) {
    throw std::logic_error("EventQueue::peek_time on empty queue");
  }
  // skim() runs after every cancel/pop, so a non-empty queue's root is live.
  return heap_.front().time;
}

EventQueue::Popped EventQueue::pop_slot() {
  if (live_ == 0) throw std::logic_error("EventQueue::pop on empty queue");
  const HeapEntry top = heap_.front();
  if (oracle::enabled() && top.time < last_pop_time_) {
    // Below the watermark (last pop / earliest push since): heap order
    // is broken — no legal push sequence can produce this.
    oracle::fail("event-queue-pop-time-decreased",
                 oracle::Dump()
                     .num("pop_time", top.time)
                     .num("previous_pop_time", last_pop_time_)
                     .integer("live", static_cast<long long>(live_)));
  }
  last_pop_time_ = top.time;
  const std::uint32_t s = entry_slot(top.key);
  EventFn fn = std::move(slot_at(s).fn);
  free_slot(s);
  --live_;
  pop_root();
  skim();
  if (live_ == 0) {
    // A drained queue may be reused from an earlier timestamp (the engine's
    // clock is monotonic, a standalone queue's is not): reset the watermark.
    last_pop_time_ = std::numeric_limits<Time>::lowest();
  }
  if (oracle::enabled()) oracle_after_mutation();
  return Popped{top.time, std::move(fn), s};
}

}  // namespace sda::sim
