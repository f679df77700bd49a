// Unit tests for the Node server: service timing, EDF dispatch order,
// external/local abortion, non-abortable directives, preemption, and
// what the outcome handler is told, and when.
#include "src/sched/node.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/sim/engine.hpp"

namespace {

using namespace sda;
using sched::LocalAbortPolicy;
using sched::Node;
using task::make_local_task;
using task::TaskPtr;
using task::TaskState;

Node::Config cfg(int index = 0,
                 LocalAbortPolicy policy = LocalAbortPolicy::kNone,
                 bool preemptive = false) {
  Node::Config c;
  c.index = index;
  c.abort_policy = policy;
  c.preemptive = preemptive;
  return c;
}

TEST(Node, PreemptionRequiresEdf) {
  // Preemption compares virtual deadlines, which only EDF serves by.
  sim::Engine e;
  for (sched::Policy p :
       {sched::Policy::kFifo, sched::Policy::kSpt, sched::Policy::kLlf}) {
    Node::Config c = cfg(0, LocalAbortPolicy::kNone, /*preemptive=*/true);
    c.policy = p;
    EXPECT_THROW(Node(e, c), std::invalid_argument) << sched::to_string(p);
  }
}

TEST(Node, RejectsWrongNodeAndNull) {
  sim::Engine e;
  Node n(e, cfg(3));
  EXPECT_THROW(n.submit(nullptr), std::invalid_argument);
  EXPECT_THROW(n.submit(make_local_task(1, 0, 0.0, 1.0, 5.0)),
               std::logic_error);
}

TEST(Node, SingleTaskServiceTiming) {
  sim::Engine e;
  Node n(e, cfg());
  std::vector<TaskPtr> done;
  n.set_outcome_handler([&](const TaskPtr& t, Node::Outcome o) {
    if (o == Node::Outcome::kCompleted) done.push_back(t);
  });

  TaskPtr t = make_local_task(1, 0, 0.0, 2.5, 10.0);
  n.submit(t);
  EXPECT_EQ(t->state, TaskState::kRunning);  // idle server starts at once
  e.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0]->state, TaskState::kCompleted);
  EXPECT_DOUBLE_EQ(done[0]->started_at, 0.0);
  EXPECT_DOUBLE_EQ(done[0]->finished_at, 2.5);
  EXPECT_TRUE(done[0]->met_real_deadline());
  EXPECT_DOUBLE_EQ(n.busy_time(), 2.5);
  EXPECT_EQ(n.completed(), 1u);
}

TEST(Node, QueuedTasksServedInEdfOrder) {
  sim::Engine e;
  Node n(e, cfg());
  std::vector<std::uint64_t> order;
  n.set_outcome_handler([&](const TaskPtr& t, Node::Outcome o) {
    if (o == Node::Outcome::kCompleted) order.push_back(t->id);
  });

  // First task occupies the server; the other two queue and are served in
  // deadline order (3 before 2) despite submission order.
  n.submit(make_local_task(1, 0, 0.0, 1.0, 100.0));
  n.submit(make_local_task(2, 0, 0.0, 1.0, 50.0));
  n.submit(make_local_task(3, 0, 0.0, 1.0, 10.0));
  e.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 3, 2}));
}

TEST(Node, NonPreemptiveByDefault) {
  sim::Engine e;
  Node n(e, cfg());
  std::vector<std::uint64_t> order;
  n.set_outcome_handler([&](const TaskPtr& t, Node::Outcome o) {
    if (o == Node::Outcome::kCompleted) order.push_back(t->id);
  });

  n.submit(make_local_task(1, 0, 0.0, 5.0, 100.0));
  e.at(1.0, [&] { n.submit(make_local_task(2, 0, 1.0, 1.0, 2.0)); });
  e.run();
  // Task 2 had the earlier deadline but task 1 was not preempted.
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(n.preemptions(), 0u);
}

TEST(Node, PreemptiveResume) {
  sim::Engine e;
  Node n(e, cfg(0, LocalAbortPolicy::kNone, /*preemptive=*/true));
  std::vector<std::pair<std::uint64_t, double>> done;
  n.set_outcome_handler([&](const TaskPtr& t, Node::Outcome o) {
    if (o == Node::Outcome::kCompleted) done.push_back({t->id, t->finished_at});
  });

  n.submit(make_local_task(1, 0, 0.0, 5.0, 100.0));
  e.at(1.0, [&] { n.submit(make_local_task(2, 0, 1.0, 1.0, 2.5)); });
  e.run();
  ASSERT_EQ(done.size(), 2u);
  // Task 2 preempts at t=1, runs 1 unit, finishes at 2; task 1 resumes with
  // 4 remaining and finishes at 6 (preempt-resume, no lost work).
  EXPECT_EQ(done[0].first, 2u);
  EXPECT_DOUBLE_EQ(done[0].second, 2.0);
  EXPECT_EQ(done[1].first, 1u);
  EXPECT_DOUBLE_EQ(done[1].second, 6.0);
  EXPECT_EQ(n.preemptions(), 1u);
  EXPECT_DOUBLE_EQ(n.busy_time(), 6.0);
}

TEST(Node, PreemptionOnlyForEarlierDeadline) {
  sim::Engine e;
  Node n(e, cfg(0, LocalAbortPolicy::kNone, true));
  n.submit(make_local_task(1, 0, 0.0, 5.0, 10.0));
  e.at(1.0, [&] { n.submit(make_local_task(2, 0, 1.0, 1.0, 50.0)); });
  e.run();
  EXPECT_EQ(n.preemptions(), 0u);
}

TEST(Node, ExternalAbortQueuedTask) {
  sim::Engine e;
  Node n(e, cfg());
  TaskPtr running = make_local_task(1, 0, 0.0, 5.0, 100.0);
  TaskPtr queued = make_local_task(2, 0, 0.0, 1.0, 100.0);
  n.submit(running);
  n.submit(queued);
  EXPECT_TRUE(n.abort(*queued));
  EXPECT_EQ(queued->state, TaskState::kAborted);
  EXPECT_EQ(n.aborted_externally(), 1u);
  e.run();
  EXPECT_EQ(running->state, TaskState::kCompleted);
  EXPECT_EQ(n.completed(), 1u);
}

TEST(Node, ExternalAbortRunningTaskFreesServer) {
  sim::Engine e;
  Node n(e, cfg());
  std::vector<std::uint64_t> done;
  n.set_outcome_handler([&](const TaskPtr& t, Node::Outcome o) {
    if (o == Node::Outcome::kCompleted) done.push_back(t->id);
  });

  TaskPtr victim = make_local_task(1, 0, 0.0, 10.0, 100.0);
  TaskPtr next = make_local_task(2, 0, 0.0, 1.0, 100.0);
  n.submit(victim);
  n.submit(next);
  e.at(3.0, [&] { EXPECT_TRUE(n.abort(*victim)); });
  e.run();
  EXPECT_EQ(victim->state, TaskState::kAborted);
  EXPECT_DOUBLE_EQ(victim->finished_at, 3.0);
  // The invested 3 units are wasted but counted busy; task 2 runs 3->4.
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 2u);
  EXPECT_DOUBLE_EQ(n.busy_time(), 4.0);
}

TEST(Node, AbortUnknownTaskFails) {
  sim::Engine e;
  Node n(e, cfg());
  TaskPtr stranger = make_local_task(9, 0, 0.0, 1.0, 5.0);
  EXPECT_FALSE(n.abort(*stranger));
  TaskPtr done_task = make_local_task(1, 0, 0.0, 1.0, 5.0);
  n.submit(done_task);
  e.run();
  EXPECT_FALSE(n.abort(*done_task));  // already completed
}

TEST(Node, LocalAbortExpiredOnArrival) {
  sim::Engine e;
  Node n(e, cfg(0, LocalAbortPolicy::kAbortOnVirtualDeadline));
  std::vector<TaskPtr> aborted;
  n.set_outcome_handler([&](const TaskPtr& t, Node::Outcome o) {
    if (o == Node::Outcome::kLocalAbort) aborted.push_back(t);
  });

  e.at(5.0, [&] {
    TaskPtr t = make_local_task(1, 0, 5.0, 1.0, 9.0);
    t->attrs.virtual_deadline = 4.0;  // already passed
    n.submit(t);
  });
  e.run();
  ASSERT_EQ(aborted.size(), 1u);
  EXPECT_EQ(aborted[0]->state, TaskState::kAborted);
  EXPECT_EQ(n.aborted_locally(), 1u);
  EXPECT_DOUBLE_EQ(n.busy_time(), 0.0);  // no service was invested
}

TEST(Node, LocalAbortMidService) {
  sim::Engine e;
  Node n(e, cfg(0, LocalAbortPolicy::kAbortOnVirtualDeadline));
  std::vector<TaskPtr> aborted;
  n.set_outcome_handler([&](const TaskPtr& t, Node::Outcome o) {
    if (o == Node::Outcome::kLocalAbort) aborted.push_back(t);
  });

  TaskPtr t = make_local_task(1, 0, 0.0, 10.0, 4.0);  // needs 10, dl at 4
  n.submit(t);
  e.run();
  ASSERT_EQ(aborted.size(), 1u);
  EXPECT_DOUBLE_EQ(aborted[0]->finished_at, 4.0);
  EXPECT_DOUBLE_EQ(n.busy_time(), 4.0);       // wasted investment
  EXPECT_DOUBLE_EQ(aborted[0]->remaining, 6.0);  // remaining demand tracked
}

TEST(Node, LocalAbortQueuedTaskAtItsDeadline) {
  sim::Engine e;
  Node n(e, cfg(0, LocalAbortPolicy::kAbortOnVirtualDeadline));
  std::vector<std::uint64_t> aborted;
  std::vector<std::uint64_t> completed;
  n.set_outcome_handler([&](const TaskPtr& t, Node::Outcome o) {
    if (o == Node::Outcome::kLocalAbort) aborted.push_back(t->id);
    if (o == Node::Outcome::kCompleted) completed.push_back(t->id);
  });

  n.submit(make_local_task(1, 0, 0.0, 5.0, 100.0));  // hogs the server
  n.submit(make_local_task(2, 0, 0.0, 1.0, 3.0));    // dies in queue at t=3
  e.run();
  EXPECT_EQ(aborted, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(completed, (std::vector<std::uint64_t>{1}));
}

TEST(Node, NonAbortableTaskSurvivesPolicy) {
  sim::Engine e;
  Node n(e, cfg(0, LocalAbortPolicy::kAbortOnVirtualDeadline));
  std::vector<std::uint64_t> completed;
  n.set_outcome_handler([&](const TaskPtr& t, Node::Outcome o) {
    if (o == Node::Outcome::kCompleted) completed.push_back(t->id);
  });

  TaskPtr t = make_local_task(1, 0, 0.0, 10.0, 4.0);
  t->non_abortable = true;  // §7.3 "special directives"
  n.submit(t);
  e.run();
  EXPECT_EQ(completed, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(n.aborted_locally(), 0u);
  EXPECT_DOUBLE_EQ(t->finished_at, 10.0);  // finished late, not aborted
}

TEST(Node, CompletionCancelsAbortTimer) {
  sim::Engine e;
  Node n(e, cfg(0, LocalAbortPolicy::kAbortOnVirtualDeadline));
  int aborts = 0;
  n.set_outcome_handler([&](const TaskPtr&, Node::Outcome o) {
    if (o == Node::Outcome::kLocalAbort) ++aborts;
  });
  n.submit(make_local_task(1, 0, 0.0, 1.0, 5.0));  // finishes well before dl
  e.run();
  EXPECT_EQ(aborts, 0);
  EXPECT_EQ(n.completed(), 1u);
  EXPECT_EQ(e.events_pending(), 0u);  // timer was cancelled, queue drained
}

TEST(Node, PreemptionPlusLocalAbortInteraction) {
  // Preemptive node with the virtual-deadline abort policy: a task that is
  // preempted and then expires in the queue must be aborted exactly once,
  // with its partial service recorded as wasted work.
  sim::Engine e;
  Node n(e, cfg(0, LocalAbortPolicy::kAbortOnVirtualDeadline, true));
  std::vector<std::uint64_t> aborted, completed;
  n.set_outcome_handler([&](const TaskPtr& t, Node::Outcome o) {
    if (o == Node::Outcome::kLocalAbort) aborted.push_back(t->id);
    if (o == Node::Outcome::kCompleted) completed.push_back(t->id);
  });

  // Task 1: needs 6, deadline 5 -> will be preempted at t=1, then die at 5.
  n.submit(make_local_task(1, 0, 0.0, 6.0, 5.0));
  // Task 2 at t=1: earlier deadline, preempts; runs 1..3.
  e.at(1.0, [&] { n.submit(make_local_task(2, 0, 1.0, 2.0, 4.0)); });
  e.run();
  // Timeline: task1 [0,1), task2 [1,3), task1 resumes [3,5) with 5 demand
  // left, aborted at its deadline 5 with remaining 3.
  EXPECT_EQ(completed, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(aborted, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(n.preemptions(), 1u);
  EXPECT_DOUBLE_EQ(n.busy_time(), 5.0);  // busy the whole time
}

TEST(Node, SpeedAndLocalAbortAccounting) {
  // Fast node (speed 2) with local aborts: remaining demand is tracked in
  // demand units, not wall-clock.
  sim::Engine e;
  Node::Config c = cfg(0, LocalAbortPolicy::kAbortOnVirtualDeadline);
  c.speed = 2.0;
  Node n(e, c);
  TaskPtr victim;
  n.set_outcome_handler([&](const TaskPtr& t, Node::Outcome o) {
    if (o == Node::Outcome::kLocalAbort) victim = t;
  });
  n.submit(make_local_task(1, 0, 0.0, 10.0, 3.0));  // 5 wall units needed
  e.run();
  ASSERT_NE(victim, nullptr);
  EXPECT_DOUBLE_EQ(victim->finished_at, 3.0);    // aborted at the deadline
  EXPECT_DOUBLE_EQ(victim->remaining, 4.0);      // 10 - 3*2 demand done
  EXPECT_DOUBLE_EQ(n.busy_time(), 3.0);
}

TEST(Node, ObserverAndHandlersBothFire) {
  sim::Engine e;
  Node n(e, cfg());
  int observed = 0, handled = 0;
  n.set_observer([&](Node::Event, const task::SimpleTask&) { ++observed; });
  n.set_outcome_handler([&](const TaskPtr&, Node::Outcome o) {
    if (o == Node::Outcome::kCompleted) ++handled;
  });
  n.submit(make_local_task(1, 0, 0.0, 1.0, 5.0));
  e.run();
  EXPECT_EQ(observed, 3);  // submit, start, complete
  EXPECT_EQ(handled, 1);
}

// A completion is reported while the server is still idle: a task the
// handler submits competes with the queue for the next pick (the
// counterpart of NodeFaults.NextJobStartsBeforeTheFailureHandlerRuns).
TEST(NodeOutcome, CompletionIsReportedBeforeTheNextPick) {
  sim::Engine e;
  Node n(e, cfg());
  std::vector<std::uint64_t> done;
  n.set_outcome_handler([&](const TaskPtr& t, Node::Outcome o) {
    ASSERT_EQ(o, Node::Outcome::kCompleted);
    done.push_back(t->id);
    if (t->id == 1) {
      EXPECT_EQ(n.in_service(), nullptr);
      EXPECT_EQ(n.queue_length(), 1u);  // task 2 not yet picked
      n.submit(make_local_task(3, 0, e.now(), 1.0, 5.0));
    }
  });
  n.submit(make_local_task(1, 0, 0.0, 2.0, 100.0));
  n.submit(make_local_task(2, 0, 0.0, 1.0, 50.0));
  e.run();
  // Task 3's earlier deadline wins the pick made after the handler.
  EXPECT_EQ(done, (std::vector<std::uint64_t>{1, 3, 2}));
}

TEST(NodeOutcome, LocalAbortIsReportedBeforeTheNextPick) {
  sim::Engine e;
  Node n(e, cfg(0, LocalAbortPolicy::kAbortOnVirtualDeadline));
  std::vector<std::pair<std::uint64_t, Node::Outcome>> log;
  n.set_outcome_handler([&](const TaskPtr& t, Node::Outcome o) {
    log.emplace_back(t->id, o);
    if (o == Node::Outcome::kLocalAbort) {
      EXPECT_EQ(n.in_service(), nullptr);
      EXPECT_EQ(n.queue_length(), 1u);  // task 2 not yet picked
      // Resubmitted with its expired deadline, the victim goes first.
      t->non_abortable = true;
      n.submit(t);
    }
  });
  n.submit(make_local_task(1, 0, 0.0, 10.0, 4.0));   // aborted at 4
  n.submit(make_local_task(2, 0, 0.0, 1.0, 100.0));  // queued behind it
  e.run();
  using O = Node::Outcome;
  EXPECT_EQ(log, (std::vector<std::pair<std::uint64_t, O>>{
                     {1, O::kLocalAbort},
                     {1, O::kCompleted},
                     {2, O::kCompleted}}));
  EXPECT_DOUBLE_EQ(e.now(), 15.0);  // 4 wasted + 10 for task 1 + 1 for task 2
}

TEST(NodeOutcome, ExternalAbortReportsNoOutcome) {
  sim::Engine e;
  Node n(e, cfg(0, LocalAbortPolicy::kAbortOnVirtualDeadline));
  std::vector<std::pair<std::uint64_t, Node::Outcome>> log;
  n.set_outcome_handler(
      [&](const TaskPtr& t, Node::Outcome o) { log.emplace_back(t->id, o); });
  TaskPtr running = make_local_task(1, 0, 0.0, 5.0, 10.0);
  TaskPtr queued = make_local_task(2, 0, 0.0, 1.0, 20.0);
  n.submit(running);
  n.submit(queued);
  e.at(1.0, [&] {
    EXPECT_TRUE(n.abort(*queued));
    EXPECT_TRUE(n.abort(*running));
  });
  e.run();
  // Neither abort is reported, and both abort timers died with the tasks.
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(n.aborted_externally(), 2u);
  EXPECT_EQ(n.aborted_locally(), 0u);
  EXPECT_EQ(e.events_pending(), 0u);
}

TEST(NodeOutcome, DiscardingCrashReportsEachVictimFailedOnce) {
  sim::Engine e;
  Node n(e, cfg());
  std::vector<std::pair<std::uint64_t, Node::Outcome>> log;
  n.set_outcome_handler(
      [&](const TaskPtr& t, Node::Outcome o) { log.emplace_back(t->id, o); });
  n.submit(make_local_task(1, 0, 0.0, 5.0, 10.0));  // in service
  n.submit(make_local_task(2, 0, 0.0, 1.0, 20.0));  // queued
  n.submit(make_local_task(3, 0, 0.0, 1.0, 30.0));  // queued
  e.at(2.0, [&] { n.crash(/*discard_queue=*/true); });
  e.at(4.0, [&] { n.recover(); });
  e.run();
  using O = Node::Outcome;
  EXPECT_EQ(log, (std::vector<std::pair<std::uint64_t, O>>{
                     {1, O::kFailed}, {2, O::kFailed}, {3, O::kFailed}}));
  EXPECT_EQ(n.failed(), 3u);
}

TEST(Node, UtilizationAndLittleLaw) {
  sim::Engine e;
  Node n(e, cfg());
  // Two unit tasks back to back starting at 0: busy 2 of 4 time units.
  n.submit(make_local_task(1, 0, 0.0, 1.0, 10.0));
  n.submit(make_local_task(2, 0, 0.0, 1.0, 10.0));
  e.run_until(4.0);
  EXPECT_DOUBLE_EQ(n.busy_time(), 2.0);
  EXPECT_DOUBLE_EQ(n.utilization(), 0.5);
  // Population: 2 tasks in [0,1), 1 in [1,2), 0 after: mean = 3/4.
  EXPECT_DOUBLE_EQ(n.mean_tasks_in_system(), 0.75);
}

TEST(Node, QueueLengthReflectsWaiters) {
  sim::Engine e;
  Node n(e, cfg());
  n.submit(make_local_task(1, 0, 0.0, 5.0, 10.0));
  n.submit(make_local_task(2, 0, 0.0, 1.0, 10.0));
  n.submit(make_local_task(3, 0, 0.0, 1.0, 10.0));
  EXPECT_EQ(n.queue_length(), 2u);
  ASSERT_NE(n.in_service(), nullptr);
  EXPECT_EQ(n.in_service()->id, 1u);
}

}  // namespace
