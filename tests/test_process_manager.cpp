// Integration tests for the process manager: deadline assignment, dispatch,
// precedence enforcement, completion propagation, abortion, resubmission.
#include "src/core/process_manager.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/sched/node.hpp"
#include "src/task/notation.hpp"

namespace {

using namespace sda;
using core::GlobalTaskRecord;
using core::PmAbortMode;
using core::ProcessManager;
using task::TaskPtr;
using task::TaskState;

/// Test fixture assembling an engine, k idle EDF nodes, and a PM.
class PmTest : public ::testing::Test {
 protected:
  void build(const std::string& psp, const std::string& ssp,
             PmAbortMode abort_mode = PmAbortMode::kNone,
             sched::LocalAbortPolicy local_policy =
                 sched::LocalAbortPolicy::kNone,
             int k = 6, int max_resubmissions = 64) {
    engine = std::make_unique<sim::Engine>();
    nodes.clear();
    node_ptrs.clear();
    for (int i = 0; i < k; ++i) {
      sched::Node::Config nc;
      nc.index = i;
      nc.abort_policy = local_policy;
      nodes.push_back(std::make_unique<sched::Node>(*engine, nc));
      node_ptrs.push_back(nodes.back().get());
    }
    ProcessManager::Config pc;
    pc.psp = core::make_psp_strategy(psp);
    pc.ssp = core::make_ssp_strategy(ssp);
    pc.abort_mode = abort_mode;
    pc.max_resubmissions_per_run = max_resubmissions;
    pm = std::make_unique<ProcessManager>(*engine, node_ptrs, std::move(pc));
    pm->set_global_handler(
        [this](const GlobalTaskRecord& r) { finished.push_back(r); });
    pm->set_subtask_handler(
        [this](const task::SimpleTask& t) { terminal_subtasks.push_back(t); });
    for (auto& n : nodes) {
      n->set_outcome_handler([this](const TaskPtr& t, sched::Node::Outcome o) {
        pm->handle_outcome(t, o);
      });
    }
  }

  std::unique_ptr<sim::Engine> engine;
  std::vector<std::unique_ptr<sched::Node>> nodes;
  std::vector<sched::Node*> node_ptrs;
  std::unique_ptr<ProcessManager> pm;
  std::vector<GlobalTaskRecord> finished;
  std::vector<task::SimpleTask> terminal_subtasks;
};

TEST_F(PmTest, RejectsBadSubmissions) {
  build("ud", "ud");
  EXPECT_THROW(pm->submit(nullptr, 10.0, 100, 1), std::invalid_argument);
  EXPECT_THROW(
      pm->submit(task::parse_notation("A@9:1"), 10.0, 100, 1),
      std::out_of_range);  // node 9 with k=6
  EXPECT_THROW(pm->submit(task::parse_notation("A:1"), 10.0, 100, 1),
               std::invalid_argument);  // unbound leaf fails validation
}

TEST_F(PmTest, RequiresStrategies) {
  build("ud", "ud");
  ProcessManager::Config pc;
  EXPECT_THROW(ProcessManager(*engine, node_ptrs, pc), std::invalid_argument);
}

TEST_F(PmTest, ParallelTaskCompletesWhenLastSubtaskFinishes) {
  build("ud", "ud");
  // Three parallel subtasks with ex 1, 2, 3 on idle nodes: done at t=3.
  pm->submit(task::parse_notation("[A@0:1 || B@1:2 || C@2:3]"), 10.0, 100, 1);
  EXPECT_EQ(pm->live_runs(), 1u);
  engine->run();
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_DOUBLE_EQ(finished[0].finished_at, 3.0);
  EXPECT_FALSE(finished[0].missed);
  EXPECT_FALSE(finished[0].aborted);
  EXPECT_EQ(finished[0].subtask_count, 3);
  EXPECT_DOUBLE_EQ(finished[0].total_work, 6.0);
  EXPECT_EQ(pm->live_runs(), 0u);
  EXPECT_EQ(pm->completed_runs(), 1u);
  EXPECT_EQ(terminal_subtasks.size(), 3u);
}

TEST_F(PmTest, SerialStagesRespectPrecedence) {
  build("ud", "ud");
  pm->submit(task::parse_notation("[A@0:2 B@0:3 C@0:4]"), 20.0, 100, 1);
  // All stages run on node 0; serial dispatch means no queueing: each
  // stage starts exactly when its predecessor completes.
  engine->run();
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_DOUBLE_EQ(finished[0].finished_at, 9.0);
  ASSERT_EQ(terminal_subtasks.size(), 3u);
  EXPECT_DOUBLE_EQ(terminal_subtasks[0].attrs.arrival, 0.0);
  EXPECT_DOUBLE_EQ(terminal_subtasks[1].attrs.arrival, 2.0);
  EXPECT_DOUBLE_EQ(terminal_subtasks[2].attrs.arrival, 5.0);
}

TEST_F(PmTest, MissDeterminedAgainstRealDeadline) {
  build("ud", "ud");
  pm->submit(task::parse_notation("[A@0:2 || B@1:5]"), 4.0, 100, 1);
  engine->run();
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_TRUE(finished[0].missed);    // finished at 5 > deadline 4
  EXPECT_FALSE(finished[0].aborted);  // no abortion configured
}

TEST_F(PmTest, SubtaskVirtualDeadlinesFollowStrategy) {
  build("div-1", "ud");
  std::vector<double> vdls;
  // Peek at queued tasks through a dedicated node handler: instead, submit
  // long tasks on distinct idle nodes and inspect the in-service tasks.
  pm->submit(task::parse_notation("[A@0:5 || B@1:5 || C@2:5]"), 9.0, 100, 1);
  for (int i = 0; i < 3; ++i) {
    ASSERT_NE(node_ptrs[static_cast<std::size_t>(i)]->in_service(), nullptr);
    vdls.push_back(node_ptrs[static_cast<std::size_t>(i)]
                       ->in_service()->attrs.virtual_deadline);
  }
  for (double v : vdls) EXPECT_DOUBLE_EQ(v, 3.0);  // Figure 4's DIV-1 value
  engine->run();
}

TEST_F(PmTest, SerialStageDeadlinesRecomputedOnline) {
  build("ud", "eqf");
  // Stage pex {2, 2}, deadline 10.  Stage A gets EQF deadline 0+2+3 = 5 but
  // *actually* finishes at 2; stage B's context starts at now=2 with slack
  // 10-2-2 = 6, so dl(B) = 2 + 2 + 6 = 10.
  pm->submit(task::parse_notation("[A@0:2 B@1:2]"), 10.0, 100, 1);
  ASSERT_NE(node_ptrs[0]->in_service(), nullptr);
  EXPECT_DOUBLE_EQ(node_ptrs[0]->in_service()->attrs.virtual_deadline, 5.0);
  engine->run_until(2.5);
  ASSERT_NE(node_ptrs[1]->in_service(), nullptr);
  EXPECT_DOUBLE_EQ(node_ptrs[1]->in_service()->attrs.virtual_deadline, 10.0);
  engine->run();
  EXPECT_EQ(finished.size(), 1u);
}

TEST_F(PmTest, NestedSerialParallelCompletion) {
  build("ud", "ud");
  // Figure 1's shape; all unit demands on distinct nodes where parallel.
  pm->submit(task::parse_notation(
                 "[T1@0:1 [T2@1:1 || [T3@2:1 T4@3:1 T5@4:1]] [T6@5:1 || "
                 "T7@0:1] T8@1:1]"),
             20.0, 100, 1);
  engine->run();
  ASSERT_EQ(finished.size(), 1u);
  // Critical path: 1 + max(1, 3) + max(1, 1) + 1 = 6.
  EXPECT_DOUBLE_EQ(finished[0].finished_at, 6.0);
  EXPECT_EQ(finished[0].subtask_count, 8);
}

TEST_F(PmTest, PmAbortKillsLiveSubtasksAtRealDeadline) {
  build("ud", "ud", PmAbortMode::kRealDeadline);
  pm->submit(task::parse_notation("[A@0:2 || B@1:10]"), 5.0, 100, 1);
  engine->run();
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_TRUE(finished[0].aborted);
  EXPECT_TRUE(finished[0].missed);
  EXPECT_DOUBLE_EQ(finished[0].finished_at, 5.0);
  EXPECT_EQ(pm->aborted_runs(), 1u);
  // A completed on time; B was aborted at the deadline.
  ASSERT_EQ(terminal_subtasks.size(), 2u);
  EXPECT_EQ(terminal_subtasks[0].state, TaskState::kCompleted);
  EXPECT_EQ(terminal_subtasks[1].state, TaskState::kAborted);
  // Node 1 is free again right after the abort.
  EXPECT_EQ(node_ptrs[1]->in_service(), nullptr);
}

TEST_F(PmTest, PmAbortPreventsLaterStageDispatch) {
  build("ud", "ud", PmAbortMode::kRealDeadline);
  pm->submit(task::parse_notation("[A@0:10 B@1:1]"), 4.0, 100, 1);
  engine->run();
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_TRUE(finished[0].aborted);
  // Only stage A ever became a subtask; B was never dispatched.
  EXPECT_EQ(terminal_subtasks.size(), 1u);
  EXPECT_EQ(node_ptrs[1]->completed(), 0u);
}

TEST_F(PmTest, TimelyCompletionCancelsAbortTimer) {
  build("ud", "ud", PmAbortMode::kRealDeadline);
  pm->submit(task::parse_notation("[A@0:1 || B@1:1]"), 5.0, 100, 1);
  engine->run();
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_FALSE(finished[0].aborted);
  EXPECT_EQ(engine->events_pending(), 0u);  // timer cleaned up
}

TEST_F(PmTest, LocalAbortTriggersResubmissionWithRealDeadline) {
  build("div-1", "ud", PmAbortMode::kNone,
        sched::LocalAbortPolicy::kAbortOnVirtualDeadline);
  // DIV-1 over 2 branches of a task with deadline 8: virtual deadlines at
  // (8-0)/2 = 4.  Subtask A needs 6 > 4, so the node aborts it at t=4; the
  // PM resubmits with the real deadline (8) and it completes at 4+6=10.
  pm->submit(task::parse_notation("[A@0:6 || B@1:1]"), 8.0, 100, 1);
  engine->run();
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_TRUE(finished[0].missed);  // finished at 10 > 8
  EXPECT_DOUBLE_EQ(finished[0].finished_at, 10.0);
  EXPECT_EQ(finished[0].resubmissions, 1);
  EXPECT_EQ(pm->resubmissions(), 1u);
}

TEST_F(PmTest, ResubmittedSubtaskIsNonAbortableSoRunsTerminate) {
  build("div-1", "ud", PmAbortMode::kNone,
        sched::LocalAbortPolicy::kAbortOnVirtualDeadline);
  // Virtual deadline 2 (= 4/2), real deadline 4, demand 6: aborted at 2
  // with all work lost, resubmitted non-abortable, reruns 2..8.  Exactly
  // one abort per subtask, and the run always terminates (late).
  pm->submit(task::parse_notation("[A@0:6 || B@1:1]"), 4.0, 100, 1);
  engine->run();
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_TRUE(finished[0].missed);
  EXPECT_EQ(finished[0].resubmissions, 1);
  EXPECT_DOUBLE_EQ(finished[0].finished_at, 8.0);
  EXPECT_EQ(pm->live_runs(), 0u);
}

TEST_F(PmTest, NonAbortableDirectiveProtectsSubtasks) {
  build("gf", "ud", PmAbortMode::kNone,
        sched::LocalAbortPolicy::kAbortOnVirtualDeadline);
  // Recreate the PM with the directive enabled.
  ProcessManager::Config pc;
  pc.psp = core::make_psp_strategy("gf");
  pc.ssp = core::make_ssp_strategy("ud");
  pc.mark_subtasks_non_abortable = true;
  pm = std::make_unique<ProcessManager>(*engine, node_ptrs, std::move(pc));
  pm->set_global_handler(
      [this](const GlobalTaskRecord& r) { finished.push_back(r); });
  for (auto& n : nodes) {
    n->set_outcome_handler([this](const TaskPtr& t, sched::Node::Outcome o) {
      pm->handle_outcome(t, o);
    });
  }
  // GF virtual deadlines are pre-expired, but the directive makes subtasks
  // immune to the local abort policy.
  pm->submit(task::parse_notation("[A@0:1 || B@1:1]"), 5.0, 100, 1);
  engine->run();
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_FALSE(finished[0].missed);
  EXPECT_EQ(pm->resubmissions(), 0u);
}

TEST_F(PmTest, StatisticsCounters) {
  build("ud", "ud");
  pm->submit(task::parse_notation("[A@0:1 || B@1:1]"), 5.0, 100, 1);
  pm->submit(task::parse_notation("[C@2:1 D@3:1]"), 9.0, 100, 1);
  EXPECT_EQ(pm->submitted(), 2u);
  EXPECT_EQ(pm->live_runs(), 2u);
  engine->run();
  EXPECT_EQ(pm->completed_runs(), 2u);
  EXPECT_EQ(pm->live_runs(), 0u);
}

TEST_F(PmTest, MetricsClassesPropagate) {
  build("ud", "ud");
  pm->submit(task::parse_notation("[A@0:1 || B@1:1]"), 5.0, 104, 7);
  engine->run();
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_EQ(finished[0].metrics_class, 104);
  for (const auto& t : terminal_subtasks) EXPECT_EQ(t.metrics_class, 7);
}

TEST_F(PmTest, AbortingOneRunLeavesOthersUntouched) {
  build("ud", "ud", PmAbortMode::kRealDeadline);
  // Two runs share node 0; the first is doomed (deadline 2, demand 5), the
  // second is fine.  Aborting the first frees node 0 early for the second.
  pm->submit(task::parse_notation("[A@0:5 || B@1:1]"), 2.0, 100, 1);
  pm->submit(task::parse_notation("[C@0:1 || D@2:1]"), 20.0, 100, 1);
  engine->run();
  ASSERT_EQ(finished.size(), 2u);
  EXPECT_TRUE(finished[0].aborted);   // the doomed run, killed at t=2
  EXPECT_FALSE(finished[1].missed);   // the healthy one completes
  // C queued behind A (same virtual deadline class on node 0? A's vdl is
  // 2, C's is 20 -> A served first), A aborted at 2, C runs 2..3.
  EXPECT_DOUBLE_EQ(finished[1].finished_at, 3.0);
  EXPECT_EQ(pm->aborted_runs(), 1u);
  EXPECT_EQ(pm->completed_runs(), 1u);
}

TEST_F(PmTest, ManyConcurrentRunsAllTerminate) {
  build("div-1", "eqf");
  for (int i = 0; i < 50; ++i) {
    pm->submit(task::parse_notation("[A@0:0.2 [B@1:0.2 || C@2:0.2] D@3:0.2]"),
               engine->now() + 10.0, 100, 1);
  }
  engine->run();
  EXPECT_EQ(finished.size(), 50u);
  EXPECT_EQ(pm->live_runs(), 0u);
  EXPECT_EQ(terminal_subtasks.size(), 200u);
}

TEST_F(PmTest, ZeroResubmissionBudgetAbortsRunOnFirstLocalAbort) {
  build("div-1", "ud", PmAbortMode::kNone,
        sched::LocalAbortPolicy::kAbortOnVirtualDeadline, 6,
        /*max_resubmissions=*/0);
  // Virtual deadline 4 (= 8/2) < demand 6: the local scheduler aborts A at
  // t=4, and with a zero budget the PM must abort the run instead of
  // resubmitting.
  pm->submit(task::parse_notation("[A@0:6 || B@1:1]"), 8.0, 100, 1);
  engine->run();
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_TRUE(finished[0].aborted);
  EXPECT_EQ(finished[0].resubmissions, 0);
  EXPECT_DOUBLE_EQ(finished[0].finished_at, 4.0);
  EXPECT_EQ(pm->resubmissions(), 0u);
  EXPECT_EQ(pm->aborted_runs(), 1u);
  EXPECT_EQ(pm->live_runs(), 0u);
}

TEST_F(PmTest, ResubmissionBudgetOfOneAllowsExactlyOne) {
  build("div-1", "ud", PmAbortMode::kNone,
        sched::LocalAbortPolicy::kAbortOnVirtualDeadline, 6,
        /*max_resubmissions=*/1);
  // Both branches get virtual deadline 4 and demand 6, so both abort at
  // t=4.  The first abort consumes the whole budget (the resubmitted copy
  // is non-abortable); the second must terminate the run.
  pm->submit(task::parse_notation("[A@0:6 || B@1:6]"), 8.0, 100, 1);
  engine->run();
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_TRUE(finished[0].aborted);
  EXPECT_EQ(finished[0].resubmissions, 1);
  EXPECT_EQ(pm->resubmissions(), 1u);
  EXPECT_EQ(pm->live_runs(), 0u);
  // Terminating the run also killed the one resubmitted attempt, so every
  // node is idle and no stale events remain.
  engine->run();
  EXPECT_EQ(engine->events_pending(), 0u);
  EXPECT_EQ(node_ptrs[0]->in_service(), nullptr);
  EXPECT_EQ(node_ptrs[1]->in_service(), nullptr);
}

TEST_F(PmTest, CapTerminationCancelsAbortTimer) {
  // Regression: the run killed by the resubmission cap carries a pending
  // real-deadline abort timer; finish_run must cancel it so no event for
  // the dead run ever fires.
  build("div-1", "ud", PmAbortMode::kRealDeadline,
        sched::LocalAbortPolicy::kAbortOnVirtualDeadline, 6,
        /*max_resubmissions=*/0);
  pm->submit(task::parse_notation("[A@0:6 || B@1:1]"), 8.0, 100, 1);
  engine->run_until(5.0);  // past the local abort at t=4
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_TRUE(finished[0].aborted);
  EXPECT_DOUBLE_EQ(finished[0].finished_at, 4.0);
  // The timer at t=8 was cancelled with the run: nothing left to fire, and
  // running to the end produces no second terminal record.
  EXPECT_EQ(engine->events_pending(), 0u);
  engine->run();
  EXPECT_EQ(finished.size(), 1u);
  EXPECT_EQ(pm->aborted_runs(), 1u);
}

TEST_F(PmTest, SubtasksQueueBehindEachOtherOnSharedNode) {
  build("ud", "ud");
  // Both parallel branches target node 0: they serialize at the server.
  pm->submit(task::parse_notation("[A@0:2 || B@0:3]"), 10.0, 100, 1);
  engine->run();
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_DOUBLE_EQ(finished[0].finished_at, 5.0);
}

}  // namespace
