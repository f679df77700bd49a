// Node-level fault semantics (crash, recover, fault hooks) and the
// FaultInjector wiring that drives them from a FaultPlan.
#include "src/fault/injector.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/sched/node.hpp"
#include "src/sim/engine.hpp"

namespace {

using namespace sda;
using fault::FaultConfig;
using fault::FaultInjector;
using fault::FaultPlan;
using sched::Node;
using task::make_local_task;
using task::TaskPtr;
using task::TaskState;

Node::Config cfg(int index = 0) {
  Node::Config c;
  c.index = index;
  return c;
}

TEST(NodeFaults, HookCanFailAnAttemptPartway) {
  sim::Engine e;
  Node n(e, cfg());
  std::vector<TaskPtr> failed;
  n.set_outcome_handler([&](const TaskPtr& t, Node::Outcome o) {
    if (o == Node::Outcome::kFailed) failed.push_back(t);
  });
  n.set_fault_hook([](const task::SimpleTask&, double) {
    Node::ServiceFault f;
    f.fail_after = 1.5;  // die 1.5 units into the leg
    return f;
  });
  n.submit(make_local_task(1, 0, 0.0, 4.0, 10.0));
  e.run();
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0]->state, TaskState::kFailed);
  EXPECT_DOUBLE_EQ(failed[0]->finished_at, 1.5);
  EXPECT_EQ(n.failed(), 1u);
  EXPECT_EQ(n.completed(), 0u);
  // The 1.5 units burned on the doomed attempt still count as busy time.
  EXPECT_DOUBLE_EQ(n.busy_time(), 1.5);
}

// An immediate retry from the failure handler queues behind the job the
// node picks next, even when the retry's deadline is earlier: the node
// starts that job before the handler runs (the order a retry arriving by
// fabric message sees).
TEST(NodeFaults, NextJobStartsBeforeTheFailureHandlerRuns) {
  sim::Engine e;
  Node n(e, cfg());
  std::vector<std::uint64_t> done;
  n.set_outcome_handler([&](const TaskPtr& t, Node::Outcome o) {
    if (o == Node::Outcome::kCompleted) done.push_back(t->id);
    if (o == Node::Outcome::kFailed) {
      EXPECT_EQ(n.queue_length(), 0u);  // task 2 already in service
      n.submit(t);
    }
  });
  n.set_fault_hook([](const task::SimpleTask& t, double) {
    Node::ServiceFault f;
    if (t.id == 1 && t.service_attempts == 1) f.fail_after = 1.5;
    return f;
  });
  n.submit(make_local_task(1, 0, 0.0, 4.0, 5.0));
  n.submit(make_local_task(2, 0, 0.0, 2.0, 10.0));
  e.run();
  EXPECT_EQ(done, (std::vector<std::uint64_t>{2, 1}));
  EXPECT_DOUBLE_EQ(e.now(), 7.5);  // 1.5 lost + 2 for task 2 + 4 for task 1
}

TEST(NodeFaults, HookExtraDelayStretchesService) {
  sim::Engine e;
  Node n(e, cfg());
  std::vector<TaskPtr> done;
  n.set_outcome_handler([&](const TaskPtr& t, Node::Outcome o) {
    if (o == Node::Outcome::kCompleted) done.push_back(t);
  });
  n.set_fault_hook([](const task::SimpleTask&, double) {
    Node::ServiceFault f;
    f.extra_delay = 0.75;  // e.g. link jitter
    return f;
  });
  n.submit(make_local_task(1, 0, 0.0, 2.0, 10.0));
  e.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0]->state, TaskState::kCompleted);
  EXPECT_DOUBLE_EQ(done[0]->finished_at, 2.75);
}

TEST(NodeFaults, FailAfterBeyondDurationCompletesNormally) {
  sim::Engine e;
  Node n(e, cfg());
  std::vector<TaskPtr> done;
  n.set_outcome_handler([&](const TaskPtr& t, Node::Outcome o) {
    if (o == Node::Outcome::kCompleted) done.push_back(t);
  });
  n.set_fault_hook([](const task::SimpleTask&, double duration) {
    Node::ServiceFault f;
    f.fail_after = duration + 1.0;  // "failure" after the attempt ends
    return f;
  });
  n.submit(make_local_task(1, 0, 0.0, 2.0, 10.0));
  e.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0]->finished_at, 2.0);
  EXPECT_EQ(n.failed(), 0u);
}

TEST(NodeFaults, CrashFailsInServiceTaskAndDiscardsQueue) {
  sim::Engine e;
  Node n(e, cfg());
  std::vector<TaskPtr> failed;
  n.set_outcome_handler([&](const TaskPtr& t, Node::Outcome o) {
    if (o == Node::Outcome::kFailed) failed.push_back(t);
  });
  n.submit(make_local_task(1, 0, 0.0, 5.0, 10.0));  // in service
  n.submit(make_local_task(2, 0, 0.0, 1.0, 10.0));  // queued
  e.at(2.0, [&] { n.crash(/*discard_queue=*/true); });
  e.run();
  ASSERT_EQ(failed.size(), 2u);
  EXPECT_EQ(failed[0]->id, 1u);  // the running task fails first
  EXPECT_EQ(failed[1]->id, 2u);
  for (const TaskPtr& t : failed) {
    EXPECT_EQ(t->state, TaskState::kFailed);
    EXPECT_DOUBLE_EQ(t->finished_at, 2.0);
  }
  EXPECT_FALSE(n.is_up());
  EXPECT_EQ(n.crashes(), 1u);
  EXPECT_EQ(n.queue_length(), 0u);
  EXPECT_DOUBLE_EQ(n.busy_time(), 2.0);  // partial work on task 1, wasted
}

TEST(NodeFaults, CrashWithoutDiscardFreezesQueueUntilRecovery) {
  sim::Engine e;
  Node n(e, cfg());
  std::vector<TaskPtr> failed, done;
  n.set_outcome_handler([&](const TaskPtr& t, Node::Outcome o) {
    if (o == Node::Outcome::kFailed) failed.push_back(t);
    if (o == Node::Outcome::kCompleted) done.push_back(t);
  });
  n.submit(make_local_task(1, 0, 0.0, 5.0, 20.0));
  n.submit(make_local_task(2, 0, 0.0, 1.0, 20.0));
  e.at(2.0, [&] { n.crash(/*discard_queue=*/false); });
  e.at(6.0, [&] { n.recover(); });
  e.run();
  // Only the in-service task failed; the queued one waited out the outage
  // and ran 6..7.
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0]->id, 1u);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0]->id, 2u);
  EXPECT_DOUBLE_EQ(done[0]->started_at, 6.0);
  EXPECT_DOUBLE_EQ(done[0]->finished_at, 7.0);
  EXPECT_TRUE(n.is_up());
}

TEST(NodeFaults, SubmitWhileDownQueuesUntilRecovery) {
  sim::Engine e;
  Node n(e, cfg());
  std::vector<TaskPtr> done;
  n.set_outcome_handler([&](const TaskPtr& t, Node::Outcome o) {
    if (o == Node::Outcome::kCompleted) done.push_back(t);
  });
  n.crash(true);
  n.submit(make_local_task(1, 0, 0.0, 1.0, 20.0));
  EXPECT_EQ(n.in_service(), nullptr);  // down: accepted but not served
  EXPECT_EQ(n.queue_length(), 1u);
  e.at(3.0, [&] { n.recover(); });
  e.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0]->started_at, 3.0);
}

TEST(NodeFaults, CrashAndRecoverAreIdempotent) {
  sim::Engine e;
  Node n(e, cfg());
  n.crash(true);
  n.crash(true);  // no-op
  EXPECT_EQ(n.crashes(), 1u);
  n.recover();
  n.recover();  // no-op
  EXPECT_TRUE(n.is_up());
}

TEST(Injector, ExecutesPlannedCrashSchedule) {
  sim::Engine e;
  Node n0(e, cfg(0)), n1(e, cfg(1));
  std::vector<sched::Node*> nodes{&n0, &n1};

  FaultConfig fc;
  fc.crash_mean_uptime = 100.0;
  fc.crash_mean_downtime = 10.0;
  // Hand-build a deterministic plan through generate() by probing the drawn
  // schedule instead of fixing instants: verify that at each planned
  // interval the node really is down, and up again after.
  const FaultPlan plan = FaultPlan::generate(fc, 2, 500.0, util::Rng(3));
  ASSERT_FALSE(plan.crashes().empty());

  FaultInjector inj(e, nodes, 2, plan, util::Rng(4));
  inj.arm();
  for (const fault::CrashInterval& iv : plan.crashes()) {
    Node* victim = nodes[static_cast<std::size_t>(iv.node)];
    const double mid = 0.5 * (iv.down_at + iv.up_at);
    e.at(mid, [victim] { EXPECT_FALSE(victim->is_up()); });
    e.at(iv.up_at + 1e-9, [victim] { EXPECT_TRUE(victim->is_up()); });
  }
  e.run();
  EXPECT_EQ(inj.crashes(), plan.crashes().size());
}

TEST(Injector, TransientFailuresHitOnlySubtasksOnComputeNodes) {
  sim::Engine e;
  Node n0(e, cfg(0)), link(e, cfg(1));
  std::vector<sched::Node*> nodes{&n0, &link};

  FaultConfig fc;
  fc.subtask_failure_rate = 1.0;  // every subtask attempt fails
  FaultInjector inj(e, nodes, /*compute_node_count=*/1,
                    FaultPlan::generate(fc, 1, 100.0, util::Rng(1)),
                    util::Rng(2));
  inj.arm();

  std::vector<TaskPtr> failed, done;
  for (Node* n : nodes) {
    n->set_outcome_handler([&](const TaskPtr& t, Node::Outcome o) {
      if (o == Node::Outcome::kFailed) failed.push_back(t);
      if (o == Node::Outcome::kCompleted) done.push_back(t);
    });
  }
  // A local task on the compute node is untouched even at rate 1.
  n0.submit(make_local_task(1, 0, 0.0, 1.0, 50.0));
  // A subtask on the compute node must fail.
  n0.submit(task::make_subtask(2, 7, 0, 0.0, 1.0, 1.0, 50.0));
  // A subtask on the link node is outside the transient-failure pool.
  link.submit(task::make_subtask(3, 7, 1, 0.0, 1.0, 1.0, 50.0));
  e.run();
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0]->id, 2u);
  EXPECT_EQ(done.size(), 2u);
  EXPECT_EQ(inj.transient_failures(), 1u);
}

TEST(Injector, MessageLossFailsLinkTransmissions) {
  sim::Engine e;
  Node n0(e, cfg(0)), link(e, cfg(1));
  std::vector<sched::Node*> nodes{&n0, &link};

  FaultConfig fc;
  fc.msg_loss_rate = 1.0;  // every transmission is lost
  FaultInjector inj(e, nodes, /*compute_node_count=*/1,
                    FaultPlan::generate(fc, 1, 100.0, util::Rng(1)),
                    util::Rng(2));
  inj.arm();

  std::vector<TaskPtr> failed;
  link.set_outcome_handler([&](const TaskPtr& t, Node::Outcome o) {
    if (o == Node::Outcome::kFailed) failed.push_back(t);
  });
  link.submit(task::make_subtask(1, 7, 1, 0.0, 0.5, 0.5, 50.0));
  e.run();
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0]->state, TaskState::kFailed);
  EXPECT_EQ(inj.messages_lost(), 1u);
}

TEST(Injector, RejectsDoubleArmAndBadArguments) {
  sim::Engine e;
  Node n0(e, cfg(0));
  std::vector<sched::Node*> nodes{&n0};
  const FaultPlan plan =
      FaultPlan::generate(FaultConfig{}, 1, 100.0, util::Rng(1));
  FaultInjector inj(e, nodes, 1, plan, util::Rng(2));
  inj.arm();
  EXPECT_THROW(inj.arm(), std::logic_error);
  EXPECT_THROW(FaultInjector(e, nodes, 2, plan, util::Rng(2)),
               std::invalid_argument);
  EXPECT_THROW(FaultInjector(e, {nullptr}, 0, plan, util::Rng(2)),
               std::invalid_argument);
}

}  // namespace
