// Randomized stress tests: the pooled, generation-tagged EventQueue and the
// indexed ready queue are checked operation-by-operation against naive
// reference models (linear scans over flat vectors).  Any divergence in pop
// order, FIFO tie-breaking, pending()/size() accounting, or cancel/remove
// return values fails loudly with the seed printed via SCOPED_TRACE.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/sched/ready_queue.hpp"
#include "src/sim/event_queue.hpp"
#include "src/task/task.hpp"
#include "src/util/rng.hpp"

namespace sda {
namespace {

// --- EventQueue vs. a linear-scan reference ------------------------------

/// Reference model: every push appends a record; pop scans for the minimum
/// (time, seq); cancel flips a liveness bit.  Obviously correct, O(n) per op.
struct RefModel {
  struct Rec {
    sim::Time time;
    std::uint64_t seq;
    int payload;
    sim::EventId id;
    bool alive = true;
  };
  std::vector<Rec> recs;
  std::uint64_t next_seq = 0;

  void push(sim::Time t, int payload, sim::EventId id) {
    recs.push_back(Rec{t, next_seq++, payload, id, true});
  }
  std::size_t size() const {
    std::size_t n = 0;
    for (const Rec& r : recs) n += r.alive ? 1 : 0;
    return n;
  }
  Rec* min_alive() {
    Rec* best = nullptr;
    for (Rec& r : recs) {
      if (!r.alive) continue;
      if (best == nullptr || r.time < best->time ||
          (r.time == best->time && r.seq < best->seq)) {
        best = &r;
      }
    }
    return best;
  }
  bool cancel(sim::EventId id) {
    for (Rec& r : recs) {
      if (r.alive && r.id == id) {
        r.alive = false;
        return true;
      }
    }
    return false;
  }
  bool pending(sim::EventId id) const {
    for (const Rec& r : recs) {
      if (r.alive && r.id == id) return true;
    }
    return false;
  }
};

TEST(EventQueueStress, MatchesReferenceUnderRandomInterleaving) {
  util::Rng rng(20250806);
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    sim::EventQueue q;
    RefModel ref;
    std::vector<sim::EventId> issued;  // includes dead handles on purpose
    int next_payload = 0;
    int fired = -1;  // payload captured by the most recent pop

    for (int step = 0; step < 4000; ++step) {
      const double dice = rng.uniform01();
      if (dice < 0.45 || q.empty()) {
        // Duplicate times are the interesting case: draw from a tiny set so
        // FIFO tie-breaking is exercised constantly.
        const sim::Time t = static_cast<sim::Time>(rng.uniform_int(0, 7));
        const int payload = next_payload++;
        const sim::EventId id = q.push(t, [payload, &fired] { fired = payload; });
        ref.push(t, payload, id);
        issued.push_back(id);
      } else if (dice < 0.70 && !issued.empty()) {
        // Cancel a random handle — often already fired/cancelled (stale).
        const std::size_t k = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(issued.size()) - 1));
        EXPECT_EQ(q.cancel(issued[k]), ref.cancel(issued[k]));
      } else {
        RefModel::Rec* expect = ref.min_alive();
        ASSERT_NE(expect, nullptr);
        EXPECT_EQ(q.peek_time(), expect->time);
        auto [t, fn] = q.pop();
        EXPECT_EQ(t, expect->time);
        fired = -1;
        fn();
        EXPECT_EQ(fired, expect->payload) << "pop order diverged";
        expect->alive = false;
      }
      ASSERT_EQ(q.size(), ref.size());
      EXPECT_EQ(q.empty(), ref.size() == 0);
      if (!issued.empty() && step % 17 == 0) {
        const std::size_t k = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(issued.size()) - 1));
        EXPECT_EQ(q.pending(issued[k]), ref.pending(issued[k]));
      }
    }

    // Drain: remaining pops must replay the reference's sorted tail exactly.
    while (!q.empty()) {
      RefModel::Rec* expect = ref.min_alive();
      ASSERT_NE(expect, nullptr);
      auto [t, fn] = q.pop();
      EXPECT_EQ(t, expect->time);
      fired = -1;
      fn();
      EXPECT_EQ(fired, expect->payload);
      expect->alive = false;
    }
    EXPECT_EQ(ref.size(), 0u);
  }
}

TEST(EventQueueStress, StaleHandlesStayInertAcrossSlotReuse) {
  // Slot recycling bumps the generation, so a handle from a previous tenant
  // must never cancel (or report pending for) the slot's new occupant.
  sim::EventQueue q;
  util::Rng rng(7);
  std::vector<sim::EventId> dead;
  for (int round = 0; round < 200; ++round) {
    const sim::EventId id = q.push(rng.uniform01(), [] {});
    if (round % 2 == 0) {
      ASSERT_TRUE(q.cancel(id));
    } else {
      (void)q.pop();
    }
    dead.push_back(id);
    // The slot just freed is recycled by this push; old handles must miss.
    const sim::EventId live = q.push(rng.uniform01(), [] {});
    for (const sim::EventId stale : dead) {
      EXPECT_FALSE(q.pending(stale));
      EXPECT_FALSE(q.cancel(stale));
    }
    EXPECT_TRUE(q.pending(live));
    ASSERT_TRUE(q.cancel(live));
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueStress, CancelReleasesCaptureEagerly) {
  // The pre-rewrite queue kept cancelled callables until their heap entry
  // surfaced in pop(); captures (tasks, timers) were pinned for the
  // duration.  Now cancel() must drop them on the spot.
  sim::EventQueue q;
  auto tracked = std::make_shared<int>(0);
  const sim::EventId id = q.push(50.0, [keep = tracked] { (void)keep; });
  q.push(1.0, [] {});  // earlier event keeps the cancelled one buried
  EXPECT_EQ(tracked.use_count(), 2);
  ASSERT_TRUE(q.cancel(id));
  EXPECT_EQ(tracked.use_count(), 1) << "cancel must destroy the callable "
                                       "immediately, not at pop time";
  EXPECT_EQ(q.size(), 1u);
}

// --- Indexed ready queue vs. a stable-sort reference ----------------------

task::TaskPtr stress_task(std::uint64_t id, double deadline) {
  return task::make_local_task(id, 0, 0.0, 1.0, deadline);
}

TEST(IndexedHeapStress, EdfMatchesStableSortedReference) {
  util::Rng rng(99);
  for (int round = 0; round < 10; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    sched::ReadyQueue edf(sched::Policy::kEdf);
    // Reference: vector kept in push order; pop = stable-min by (deadline,
    // enqueue order); remove = erase by identity.
    std::vector<task::TaskPtr> ref;
    std::vector<task::TaskPtr> all;
    std::uint64_t next_id = 1;

    auto ref_pop = [&ref]() -> task::TaskPtr {
      if (ref.empty()) return nullptr;
      auto best = ref.begin();
      for (auto it = ref.begin(); it != ref.end(); ++it) {
        if ((*it)->attrs.virtual_deadline < (*best)->attrs.virtual_deadline) {
          best = it;  // strictly earlier deadline wins; ties keep first
        }
      }
      task::TaskPtr out = *best;
      ref.erase(best);
      return out;
    };

    for (int step = 0; step < 2000; ++step) {
      const double dice = rng.uniform01();
      if (dice < 0.5 || ref.empty()) {
        // Coarse deadlines force ties, exercising push-order tie-breaks.
        auto t = stress_task(next_id++, rng.uniform_int(0, 9));
        ref.push_back(t);
        all.push_back(t);
        edf.push(t);
      } else if (dice < 0.7) {
        // Remove a random task — queued or not (abort may race completion).
        const std::size_t k = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(all.size()) - 1));
        const auto it = std::find(ref.begin(), ref.end(), all[k]);
        const task::TaskPtr got = edf.remove(*all[k]);
        if (it != ref.end()) {
          EXPECT_EQ(got.get(), all[k].get());
          ref.erase(it);
        } else {
          EXPECT_EQ(got, nullptr);
        }
      } else {
        const task::TaskPtr expect = ref_pop();
        ASSERT_NE(expect, nullptr);
        const task::SimpleTask* top = edf.peek();
        ASSERT_NE(top, nullptr);
        EXPECT_EQ(top, expect.get());
        EXPECT_EQ(edf.pop().get(), expect.get()) << "EDF order diverged";
      }
      ASSERT_EQ(edf.size(), ref.size());
    }
    while (edf.size() > 0) {
      EXPECT_EQ(edf.pop().get(), ref_pop().get());
    }
    EXPECT_EQ(ref_pop(), nullptr);
    EXPECT_EQ(edf.pop(), nullptr);
  }
}

TEST(IndexedHeapStress, RemoveRejectsTaskQueuedElsewhere) {
  // queue_pos is intrusive, so a queue must verify identity before
  // trusting it: a task sitting in *another* queue's heap carries a
  // plausible-looking position.
  sched::ReadyQueue a;
  sched::ReadyQueue b;
  auto t = stress_task(1, 5.0);
  a.push(t);
  EXPECT_EQ(b.remove(*t), nullptr);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(a.remove(*t).get(), t.get());
  EXPECT_EQ(a.size(), 0u);
  // And once removed, the task is re-pushable anywhere.
  b.push(t);
  EXPECT_EQ(b.pop().get(), t.get());
}

TEST(IndexedHeapStress, FifoPreservesArrivalOrderWithRemovals) {
  sched::ReadyQueue fifo(sched::Policy::kFifo);
  util::Rng rng(11);
  std::vector<task::TaskPtr> order;
  for (std::uint64_t i = 1; i <= 300; ++i) {
    auto t = stress_task(i, rng.uniform01());
    order.push_back(t);
    fifo.push(t);
  }
  // Remove every third task, then expect the untouched arrival order back.
  std::vector<task::TaskPtr> expect;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i % 3 == 0) {
      EXPECT_EQ(fifo.remove(*order[i]).get(), order[i].get());
    } else {
      expect.push_back(order[i]);
    }
  }
  for (const auto& t : expect) {
    ASSERT_EQ(fifo.pop().get(), t.get());
  }
  EXPECT_EQ(fifo.pop(), nullptr);
}

}  // namespace
}  // namespace sda
