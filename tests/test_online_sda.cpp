// Tests of the *on-line* SDA behaviour: how the process manager's stage
// dispatch interacts with actual (not planned) completion times, and how it
// differs from the offline plan — the defining feature of the paper's
// on-line premise.
#include <gtest/gtest.h>

#include <memory>

#include "src/core/process_manager.hpp"
#include "src/core/sda.hpp"
#include "src/exp/runner.hpp"
#include "src/metrics/task_class.hpp"
#include "src/sched/node.hpp"
#include "src/task/notation.hpp"

namespace {

using namespace sda;
using core::GlobalTaskRecord;
using core::ProcessManager;
using task::TaskPtr;

class OnlineSda : public ::testing::Test {
 protected:
  void build(const std::string& psp, const std::string& ssp, int k = 6) {
    engine = std::make_unique<sim::Engine>();
    nodes.clear();
    node_ptrs.clear();
    for (int i = 0; i < k; ++i) {
      sched::Node::Config nc;
      nc.index = i;
      nodes.push_back(std::make_unique<sched::Node>(*engine, nc));
      node_ptrs.push_back(nodes.back().get());
    }
    ProcessManager::Config pc;
    pc.psp = core::make_psp_strategy(psp);
    pc.ssp = core::make_ssp_strategy(ssp);
    pm = std::make_unique<ProcessManager>(*engine, node_ptrs, std::move(pc));
    for (auto& n : nodes) {
      n->set_outcome_handler(
          [this](const TaskPtr& t, sched::Node::Outcome o) {
            pm->handle_outcome(t, o);
          });
    }
    pm->set_subtask_handler([this](const task::SimpleTask& t) {
      dispatched.push_back(t);
    });
  }

  std::unique_ptr<sim::Engine> engine;
  std::vector<std::unique_ptr<sched::Node>> nodes;
  std::vector<sched::Node*> node_ptrs;
  std::unique_ptr<ProcessManager> pm;
  std::vector<task::SimpleTask> dispatched;  // terminal order
};

TEST_F(OnlineSda, EqfRedistributesSlackWhenAStageFinishesEarly) {
  build("ud", "eqf");
  // Stages with pex {4, 2, 2} but stage 1's *actual* ex is only 1 (the
  // pex is a bad estimate).  Offline plan would give stage 2 its deadline
  // assuming stage 1 used its whole budget; on-line EQF re-measures.
  pm->submit(task::parse_notation("[A@0:1/4 B@1:2/2 C@2:2/2]"), 16.0, 100, 1);
  engine->run();
  ASSERT_EQ(dispatched.size(), 3u);
  // Offline: dl(A) = 0 + 4 + 8*(4/8) = 8.  A actually finishes at 1.
  EXPECT_DOUBLE_EQ(dispatched[0].attrs.virtual_deadline, 8.0);
  EXPECT_DOUBLE_EQ(dispatched[0].finished_at, 1.0);
  // On-line stage B: now = 1, slack = 16-1-4 = 11, share 2/4 ->
  // dl(B) = 1 + 2 + 5.5 = 8.5 (the plan would have said 12).
  EXPECT_DOUBLE_EQ(dispatched[1].attrs.arrival, 1.0);
  EXPECT_DOUBLE_EQ(dispatched[1].attrs.virtual_deadline, 8.5);
  // Stage C: dispatched at 3, slack = 16-3-2 = 11 -> dl = 3+2+11 = 16.
  EXPECT_DOUBLE_EQ(dispatched[2].attrs.virtual_deadline, 16.0);
}

TEST_F(OnlineSda, EqfTightensWhenAStageRunsLate) {
  build("ud", "eqf");
  // Stage A's pex is 1 but it actually takes 7 of the 10-unit deadline.
  pm->submit(task::parse_notation("[A@0:7/1 B@1:1/1]"), 10.0, 100, 1);
  engine->run();
  ASSERT_EQ(dispatched.size(), 2u);
  // B dispatched at 7 with slack 10-7-1 = 2: dl(B) = 7 + 1 + 2 = 10; B's
  // virtual deadline collapses to the end-to-end deadline, unlike the
  // optimistic offline plan (which reserved slack it no longer has).
  EXPECT_DOUBLE_EQ(dispatched[1].attrs.virtual_deadline, 10.0);
}

TEST_F(OnlineSda, OnlineMatchesPlanWhenExEqualsPexAndNoQueueing) {
  build("ud", "eqf");
  const char* text = "[A@0:2/2 B@1:3/3 C@2:5/5]";
  pm->submit(task::parse_notation(text), 20.0, 100, 1);
  engine->run();

  // With perfect estimates and idle nodes, a stage finishes exactly when
  // the next is dispatched... not at its *deadline* though: it finishes at
  // cumulative ex.  The online assignment uses actual times, so recompute
  // the expected values directly.
  ASSERT_EQ(dispatched.size(), 3u);
  // Stage A: now 0, slack 10, share 2/10 -> dl 0+2+2 = 4.
  EXPECT_DOUBLE_EQ(dispatched[0].attrs.virtual_deadline, 4.0);
  // Stage B: now 2, slack 20-2-8 = 10, share 3/8 -> dl 2+3+3.75 = 8.75.
  EXPECT_DOUBLE_EQ(dispatched[1].attrs.virtual_deadline, 8.75);
  // Stage C: now 5, slack 20-5-5 = 10 -> dl 5+5+10 = 20.
  EXPECT_DOUBLE_EQ(dispatched[2].attrs.virtual_deadline, 20.0);
}

TEST_F(OnlineSda, ParallelStageInsideSerialUsesStageDeadlineForDiv) {
  build("div-1", "eqf");
  // [A (B||C) D], all pex 1, deadline 12.  Stage deadlines via EQF; the
  // parallel stage's DIV-1 then divides *its* stage window by 2.
  pm->submit(task::parse_notation("[A@0:1 [B@1:1 || C@2:1] D@3:1]"), 12.0,
             100, 1);
  engine->run();
  ASSERT_EQ(dispatched.size(), 4u);
  // Stage A: slack = 12-3 = 9, share 1/3 -> dl = 1+3 = 4.
  EXPECT_DOUBLE_EQ(dispatched[0].attrs.virtual_deadline, 4.0);
  // Parallel stage at now=1: slack = 12-1-2 = 9, share 1/2 -> stage dl =
  // 1+1+4.5 = 6.5; DIV-1 over 2 branches: 1 + (6.5-1)/2 = 3.75.
  EXPECT_DOUBLE_EQ(dispatched[1].attrs.virtual_deadline, 3.75);
  EXPECT_DOUBLE_EQ(dispatched[2].attrs.virtual_deadline, 3.75);
  // B and C run in parallel on idle nodes: both finish at 2, D starts at 2.
  EXPECT_DOUBLE_EQ(dispatched[3].attrs.arrival, 2.0);
  // Stage D: slack = 12-2-1 = 9 -> dl = 2+1+9 = 12.
  EXPECT_DOUBLE_EQ(dispatched[3].attrs.virtual_deadline, 12.0);
}

TEST_F(OnlineSda, QueueingDelaysPropagateIntoLaterStageDeadlines) {
  build("ud", "eqf");
  // Two globals share node 0 for their first stage; the second global's
  // stage A queues behind the first's (EDF, both UD at stage level).
  pm->submit(task::parse_notation("[A@0:3 B@1:1]"), 20.0, 100, 1);
  pm->submit(task::parse_notation("[C@0:3 D@2:1]"), 22.0, 100, 1);
  engine->run();
  ASSERT_EQ(dispatched.size(), 4u);
  // First global: A runs 0..3, B dispatched at 3.
  // Second global: C queues until 3, runs 3..6; D dispatched at 6 with
  // arrival time 6 — the queueing delay is visible to the SSP strategy.
  const auto& d = dispatched;
  EXPECT_DOUBLE_EQ(d[1].attrs.arrival, 3.0);   // B
  EXPECT_DOUBLE_EQ(d[2].finished_at, 6.0);     // C
  EXPECT_DOUBLE_EQ(d[3].attrs.arrival, 6.0);   // D
  // D's EQF deadline: now 6, slack 22-6-1 = 15 -> 6+1+15 = 22.
  EXPECT_DOUBLE_EQ(d[3].attrs.virtual_deadline, 22.0);
}

TEST_F(OnlineSda, GfInsideEqfStageShiftsOnlyParallelBranches) {
  build("gf", "eqf");
  pm->submit(task::parse_notation("[A@0:1 [B@1:1 || C@2:1]]"), 10.0, 100, 1);
  engine->run();
  ASSERT_EQ(dispatched.size(), 3u);
  // Serial stage A keeps its EQF deadline (GF is a PSP-only strategy):
  // slack = 10-2 = 8, share 1/2 -> dl(A) = 1+4 = 5.
  EXPECT_DOUBLE_EQ(dispatched[0].attrs.virtual_deadline, 5.0);
  // Parallel branches get stage_dl - DELTA (hugely negative).
  EXPECT_LT(dispatched[1].attrs.virtual_deadline, -1e8);
  EXPECT_LT(dispatched[2].attrs.virtual_deadline, -1e8);
  // Real deadlines are untouched.
  EXPECT_DOUBLE_EQ(dispatched[1].attrs.real_deadline, 10.0);
}

}  // namespace
