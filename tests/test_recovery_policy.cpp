// The process manager's fault-recovery path: bounded retries, backoff,
// failover, deadline-aware SDA re-assignment, negative-slack shedding, and
// whole-run determinism under injected faults.
#include "src/core/process_manager.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/strategy.hpp"
#include "src/exp/runner.hpp"
#include "src/metrics/trace.hpp"
#include "src/sched/node.hpp"
#include "src/task/notation.hpp"

namespace {

using namespace sda;
using core::GlobalTaskRecord;
using core::ProcessManager;
using core::RecoveryPolicy;
using core::RetryDeadline;
using task::TaskPtr;
using task::TaskState;

/// Engine + k EDF nodes + PM with failure plumbing, like PmTest but with
/// a configurable RecoveryPolicy and per-test fault hooks.
class RecoveryTest : public ::testing::Test {
 protected:
  void build(const RecoveryPolicy& rp, const std::string& psp = "ud",
             const std::string& ssp = "ud",
             core::PmAbortMode abort_mode = core::PmAbortMode::kNone,
             int k = 4) {
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
    pc.abort_mode = abort_mode;
    pc.recovery = rp;
    pc.compute_node_count = k;
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

  /// Installs a hook on node @p index failing the first @p times attempts
  /// at @p at time units into the leg.
  void fail_first_attempts(int index, int times, double at) {
    auto count = std::make_shared<int>(0);
    node_ptrs[static_cast<std::size_t>(index)]->set_fault_hook(
        [count, times, at](const task::SimpleTask&, double) {
          sched::Node::ServiceFault f;
          if ((*count)++ < times) f.fail_after = at;
          return f;
        });
  }

  std::unique_ptr<sim::Engine> engine;
  std::vector<std::unique_ptr<sched::Node>> nodes;
  std::vector<sched::Node*> node_ptrs;
  std::unique_ptr<ProcessManager> pm;
  std::vector<GlobalTaskRecord> finished;
  std::vector<task::SimpleTask> terminal_subtasks;
};

TEST_F(RecoveryTest, RetriedSubtaskCompletesTheRun) {
  build(RecoveryPolicy{});
  fail_first_attempts(0, 1, 1.0);
  // A fails at t=1 with its work lost, is resubmitted immediately, and
  // reruns the full demand 1..3.
  pm->submit(task::parse_notation("A@0:2"), 10.0, 100, 1);
  engine->run();
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_FALSE(finished[0].aborted);
  EXPECT_FALSE(finished[0].shed);
  EXPECT_EQ(finished[0].retries, 1);
  EXPECT_DOUBLE_EQ(finished[0].finished_at, 3.0);
  EXPECT_EQ(pm->fault_retries(), 1u);
  EXPECT_EQ(pm->shed_runs(), 0u);
  EXPECT_EQ(pm->live_runs(), 0u);
}

TEST_F(RecoveryTest, RetryCapShedsTheRun) {
  RecoveryPolicy rp;
  rp.max_retries_per_run = 2;
  rp.shed_negative_slack = false;  // isolate the cap path
  build(rp);
  fail_first_attempts(0, 100, 0.5);  // every attempt fails
  pm->submit(task::parse_notation("A@0:2"), 50.0, 100, 1);
  engine->run();
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_TRUE(finished[0].aborted);
  EXPECT_TRUE(finished[0].shed);
  EXPECT_EQ(finished[0].retries, 2);
  // Failures at 0.5, 1.0, 1.5; the third exceeds the cap and sheds.
  EXPECT_DOUBLE_EQ(finished[0].finished_at, 1.5);
  EXPECT_EQ(pm->shed_runs(), 1u);
  EXPECT_EQ(pm->aborted_runs(), 1u);
}

TEST_F(RecoveryTest, ZeroRetriesMeansFirstFaultSheds) {
  RecoveryPolicy rp;
  rp.max_retries_per_run = 0;
  build(rp);
  fail_first_attempts(0, 1, 1.0);
  pm->submit(task::parse_notation("A@0:2"), 50.0, 100, 1);
  engine->run();
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_TRUE(finished[0].shed);
  EXPECT_EQ(finished[0].retries, 0);
  EXPECT_EQ(pm->fault_retries(), 0u);
}

TEST_F(RecoveryTest, NegativeSlackShedsInsteadOfRetrying) {
  build(RecoveryPolicy{});  // shed_negative_slack defaults on
  fail_first_attempts(0, 1, 1.5);
  // pex 2, deadline 3: at the failure (t=1.5) even a queue-free rerun ends
  // at 3.5 > 3, so the run is shed without consuming a retry.
  pm->submit(task::parse_notation("A@0:2"), 3.0, 100, 1);
  engine->run();
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_TRUE(finished[0].shed);
  EXPECT_EQ(finished[0].retries, 0);
  EXPECT_DOUBLE_EQ(finished[0].finished_at, 1.5);
  EXPECT_EQ(pm->fault_retries(), 0u);
  EXPECT_EQ(pm->shed_runs(), 1u);
}

TEST_F(RecoveryTest, NegativeSlackShedCountsLaterSerialStages) {
  build(RecoveryPolicy{});
  fail_first_attempts(0, 1, 0.5);
  // Stage A (pex 1) fails at t=0.5; remaining path = 1 (A) + 2 (B) = 3, so
  // 0.5 + 3 > 3.2 fails only because of stage B's demand.
  pm->submit(task::parse_notation("[A@0:1 B@1:2]"), 3.2, 100, 1);
  engine->run();
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_TRUE(finished[0].shed);
  // Stage B never became a subtask.
  EXPECT_EQ(nodes[1]->completed(), 0u);
}

TEST_F(RecoveryTest, StaleDeadlineKeepsOriginalAssignment) {
  RecoveryPolicy rp;
  rp.deadline_mode = RetryDeadline::kStale;
  build(rp, "div-1", "ud");
  fail_first_attempts(0, 1, 2.0);
  // DIV-1 over two branches of deadline 8: initial virtual deadlines 4.
  pm->submit(task::parse_notation("[A@0:4 || B@1:4]"), 8.0, 100, 1);
  engine->run_until(2.5);  // A failed at t=2 and was resubmitted
  ASSERT_NE(node_ptrs[0]->in_service(), nullptr);
  EXPECT_DOUBLE_EQ(node_ptrs[0]->in_service()->attrs.virtual_deadline, 4.0);
  engine->run();
}

TEST_F(RecoveryTest, SdaRecomputeReassignsFromRemainingSlack) {
  RecoveryPolicy rp;
  rp.deadline_mode = RetryDeadline::kSdaRecompute;
  build(rp, "div-1", "ud");
  fail_first_attempts(0, 1, 2.0);
  pm->submit(task::parse_notation("[A@0:4 || B@1:4]"), 8.0, 100, 1);
  engine->run_until(2.5);
  ASSERT_NE(node_ptrs[0]->in_service(), nullptr);
  const double vdl = node_ptrs[0]->in_service()->attrs.virtual_deadline;
  // The honest reassignment must differ from the stale value and must
  // match the strategy evaluated at the retry instant.
  EXPECT_NE(vdl, 4.0);
  const auto psp = core::make_psp_strategy("div-1");
  ASSERT_EQ(finished.size(), 0u);
  const task::TreePtr probe = task::parse_notation("[A@0:4 || B@1:4]");
  EXPECT_DOUBLE_EQ(
      vdl, core::assign_branch_deadline(*psp, *probe, 0, 2.0, 8.0));
  engine->run();
}

TEST_F(RecoveryTest, FailoverMovesRetryToAnUpNode) {
  build(RecoveryPolicy{});
  pm->submit(task::parse_notation("A@0:5"), 50.0, 100, 1);
  engine->at(1.0, [this] { node_ptrs[0]->crash(/*discard_queue=*/true); });
  engine->run();
  // The crash at t=1 killed the attempt on node 0; the retry failed over
  // to node 1 and reran the full demand 1..6.
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_FALSE(finished[0].aborted);
  EXPECT_DOUBLE_EQ(finished[0].finished_at, 6.0);
  EXPECT_EQ(nodes[1]->completed(), 1u);
  EXPECT_EQ(pm->failovers(), 1u);
  EXPECT_EQ(pm->fault_retries(), 1u);
}

TEST_F(RecoveryTest, NoFailoverQueuesIntoTheOutage) {
  RecoveryPolicy rp;
  rp.failover = false;
  build(rp);
  pm->submit(task::parse_notation("A@0:2"), 50.0, 100, 1);
  engine->at(1.0, [this] { node_ptrs[0]->crash(/*discard_queue=*/true); });
  engine->at(4.0, [this] { node_ptrs[0]->recover(); });
  engine->run();
  // The retry waited out the outage on its original node: 4..6.
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_DOUBLE_EQ(finished[0].finished_at, 6.0);
  EXPECT_EQ(nodes[0]->completed(), 1u);
  EXPECT_EQ(pm->failovers(), 0u);
}

TEST_F(RecoveryTest, BackoffDelaysTheRetryExponentially) {
  RecoveryPolicy rp;
  rp.backoff_base = 2.0;
  rp.backoff_factor = 2.0;
  rp.shed_negative_slack = false;
  build(rp);
  fail_first_attempts(0, 2, 1.0);
  // Failures at t=1 and t=4: retry 1 waits 2 (resumes at 3, fails at 4),
  // retry 2 waits 4 (resumes at 8) and completes 8..10.
  pm->submit(task::parse_notation("A@0:2"), 50.0, 100, 1);
  engine->run();
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_FALSE(finished[0].aborted);
  EXPECT_EQ(finished[0].retries, 2);
  EXPECT_DOUBLE_EQ(finished[0].finished_at, 10.0);
}

TEST_F(RecoveryTest, RunEndedDuringBackoffIsNotRevived) {
  RecoveryPolicy rp;
  rp.backoff_base = 5.0;
  rp.shed_negative_slack = false;
  build(rp, "ud", "ud", core::PmAbortMode::kRealDeadline);
  fail_first_attempts(0, 1, 1.0);
  // Failure at t=1 schedules a retry for t=6, but the real-deadline timer
  // kills the run at t=3.  The pending retry must find the run gone and do
  // nothing — no second terminal record, no resurrection.
  pm->submit(task::parse_notation("A@0:2"), 3.0, 100, 1);
  engine->run();
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_TRUE(finished[0].aborted);
  EXPECT_FALSE(finished[0].shed);
  EXPECT_DOUBLE_EQ(finished[0].finished_at, 3.0);
  EXPECT_EQ(pm->live_runs(), 0u);
  EXPECT_EQ(engine->events_pending(), 0u);
  EXPECT_EQ(nodes[0]->in_service(), nullptr);
}

TEST_F(RecoveryTest, CrashShedLeavesNoPendingTimers) {
  // Timer-hygiene regression under the fault path: a run shed while its
  // real-deadline abort timer is armed must cancel the timer with it.
  RecoveryPolicy rp;
  rp.max_retries_per_run = 0;
  build(rp, "ud", "ud", core::PmAbortMode::kRealDeadline);
  fail_first_attempts(0, 1, 1.0);
  pm->submit(task::parse_notation("A@0:2"), 30.0, 100, 1);
  engine->run_until(2.0);  // shed happened at t=1
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_TRUE(finished[0].shed);
  EXPECT_EQ(engine->events_pending(), 0u);  // the t=30 timer is gone
  engine->run();
  EXPECT_EQ(finished.size(), 1u);
}

// --- whole-run determinism under faults (run_once level) -------------------

exp::ExperimentConfig faulty_config() {
  exp::ExperimentConfig c;
  c.k = 6;
  c.load = 0.6;
  c.sim_time = 3000.0;
  c.replications = 1;
  c.fault_rate = 0.05;
  c.crash_mean_uptime = 400.0;
  c.crash_mean_downtime = 25.0;
  return c;
}

TEST(RecoveryDeterminism, SameSeedSameFaultsSameFingerprint) {
  const exp::ExperimentConfig c = faulty_config();
  metrics::Tracer a, b;
  const exp::RunResult ra = exp::run_once(c, 123, &a);
  const exp::RunResult rb = exp::run_once(c, 123, &b);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(ra.node_crashes, rb.node_crashes);
  EXPECT_EQ(ra.transient_failures, rb.transient_failures);
  EXPECT_EQ(ra.fault_retries, rb.fault_retries);
  EXPECT_EQ(ra.globals_shed, rb.globals_shed);
  EXPECT_EQ(ra.events_fired, rb.events_fired);
  // The faults actually bit: this config must produce fault activity.
  EXPECT_GT(ra.transient_failures + ra.node_crashes, 0u);
}

TEST(RecoveryDeterminism, DifferentSeedsDiverge) {
  const exp::ExperimentConfig c = faulty_config();
  metrics::Tracer a, b;
  exp::run_once(c, 123, &a);
  exp::run_once(c, 124, &b);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

// The fault stream is split from the master only when faults are enabled,
// so recovery-policy knobs alone (with every fault rate at zero) must not
// perturb the workload streams: the run is bit-identical to the default
// fail-free configuration.
TEST(RecoveryDeterminism, RecoveryKnobsAloneDoNotPerturbFailFreeRuns) {
  exp::ExperimentConfig plain;
  plain.k = 6;
  plain.load = 0.6;
  plain.sim_time = 3000.0;
  plain.replications = 1;

  exp::ExperimentConfig tuned = plain;
  tuned.max_retries_per_run = 9;
  tuned.retry_backoff_base = 1.0;
  tuned.retry_failover = false;
  tuned.retry_deadline = "stale";
  tuned.shed_negative_slack = false;
  ASSERT_FALSE(tuned.faults_enabled());

  metrics::Tracer a, b;
  const exp::RunResult ra = exp::run_once(plain, 77, &a);
  const exp::RunResult rb = exp::run_once(tuned, 77, &b);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(ra.events_fired, rb.events_fired);
  EXPECT_EQ(rb.node_crashes, 0u);
  EXPECT_EQ(rb.transient_failures, 0u);
  EXPECT_EQ(rb.fault_retries, 0u);
}

// A run shed by negative-slack shedding while one of its legs is parked
// on a backoff timer must cancel that timer: nothing of the run may fire
// after termination (the timer would otherwise dereference recycled run
// state — and at minimum drag the engine clock to the stale fire time).
TEST_F(RecoveryTest, ShedRunCancelsPendingRetryTimer) {
  RecoveryPolicy rp;
  rp.backoff_base = 10.0;  // a's retry would fire at t = 11
  rp.shed_negative_slack = true;
  build(rp);
  fail_first_attempts(0, 1, 1.0);  // a fails at t=1 -> backoff until t=11
  fail_first_attempts(1, 1, 2.0);  // b fails at t=2 -> slack gone -> shed
  // Deadline 6.5: at t=1 a still fits (1 + 5 <= 6.5) so its retry is
  // parked; at t=2 the remaining critical path overruns (2 + 5 > 6.5).
  pm->submit(task::parse_notation("[a@0:5/5 || b@1:5/5]"), 6.5, 100, 1);
  engine->run();
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_TRUE(finished[0].shed);
  // The engine went quiet at the shed time, not at the timer's: the
  // backoff timer died with the run.
  EXPECT_EQ(engine->events_pending(), 0u);
  EXPECT_DOUBLE_EQ(engine->now(), 2.0);
  EXPECT_EQ(pm->live_runs(), 0u);
}

}  // namespace
