// Tests of the SDA_VALIDATE invariant oracle (src/core/invariants.*).
//
// Two halves:
//   * the oracle must stay silent — and perturb nothing — on correct
//     executions across every built-in PSP x SSP pair;
//   * deliberately corrupted SDA output and heap state must trip it
//     (death tests matching the structured violation banner).
#include "src/core/invariants.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/core/process_manager.hpp"
#include "src/core/strategy.hpp"
#include "src/sched/node.hpp"
#include "src/sched/ready_queue.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/event_queue.hpp"
#include "src/task/notation.hpp"
#include "src/task/task.hpp"

namespace {

using namespace sda;
using core::ProcessManager;
using task::TaskPtr;

namespace oracle = core::invariants;

/// Scoped oracle switch: every test restores the disabled default so the
/// process-wide flag never leaks across tests.
class OracleGuard {
 public:
  explicit OracleGuard(bool on) { oracle::set_enabled(on); }
  ~OracleGuard() { oracle::set_enabled(false); }
};

// --- harness ---------------------------------------------------------------

struct Sim {
  std::unique_ptr<sim::Engine> engine;
  std::vector<std::unique_ptr<sched::Node>> nodes;
  std::vector<sched::Node*> node_ptrs;
  std::unique_ptr<ProcessManager> pm;
  std::vector<double> terminal_deadlines;  // subtask vdl in terminal order

  Sim(std::shared_ptr<const core::PspStrategy> psp,
      std::shared_ptr<const core::SspStrategy> ssp, int node_count = 6) {
    engine = std::make_unique<sim::Engine>();
    for (int i = 0; i < node_count; ++i) {
      sched::Node::Config nc;
      nc.index = i;
      nodes.push_back(std::make_unique<sched::Node>(*engine, nc));
      node_ptrs.push_back(nodes.back().get());
    }
    ProcessManager::Config pc;
    pc.psp = std::move(psp);
    pc.ssp = std::move(ssp);
    pm = std::make_unique<ProcessManager>(*engine, node_ptrs, std::move(pc));
    for (auto& n : nodes) {
      n->set_outcome_handler(
          [this](const TaskPtr& t, sched::Node::Outcome o) {
            pm->handle_outcome(t, o);
          });
    }
    pm->set_subtask_handler([this](const task::SimpleTask& t) {
      terminal_deadlines.push_back(t.attrs.virtual_deadline);
    });
  }

  Sim(const std::string& psp, const std::string& ssp)
      : Sim(std::shared_ptr<const core::PspStrategy>(
                core::make_psp_strategy(psp)),
            std::shared_ptr<const core::SspStrategy>(
                core::make_ssp_strategy(ssp))) {}
};

/// A task mixing serial chains, parallel fan-out, and nesting.
const char* kTree = "[A@0:1/1 [B@1:2/2 || [C@2:1/1 D@3:2/2] || E@4:1/1] F@5:2/2]";

std::vector<double> run_combo(const std::string& psp, const std::string& ssp,
                              double deadline) {
  Sim s(psp, ssp);
  s.pm->submit(task::parse_notation(kTree), deadline, 100, 1);
  s.engine->run();
  return s.terminal_deadlines;
}

// --- happy path: silent and side-effect-free -------------------------------

TEST(InvariantOracle, SilentAcrossAllStrategyCombos) {
  OracleGuard guard(true);
  for (const char* psp : {"ud", "div-1", "div-2", "gf"}) {
    for (const char* ssp : {"ud", "ed", "eqs", "eqf"}) {
      // Ample and tight (but feasible) windows; no death expected.
      const auto ample = run_combo(psp, ssp, 40.0);
      const auto tight = run_combo(psp, ssp, 8.5);
      EXPECT_EQ(ample.size(), 6u) << psp << "/" << ssp;
      EXPECT_EQ(tight.size(), 6u) << psp << "/" << ssp;
    }
  }
}

TEST(InvariantOracle, ChecksArePure) {
  // Identical terminal deadlines with the oracle on and off: the checks
  // observe the simulation without perturbing it.
  std::vector<double> with_oracle, without_oracle;
  {
    OracleGuard guard(true);
    with_oracle = run_combo("div-1", "eqf", 20.0);
  }
  {
    OracleGuard guard(false);
    without_oracle = run_combo("div-1", "eqf", 20.0);
  }
  ASSERT_EQ(with_oracle.size(), without_oracle.size());
  for (std::size_t i = 0; i < with_oracle.size(); ++i) {
    EXPECT_DOUBLE_EQ(with_oracle[i], without_oracle[i]) << i;
  }
}

TEST(InvariantOracle, InfeasibleWindowsDoNotFalseAlarm) {
  OracleGuard guard(true);
  // Negative slack from the start: GF and EQS/EQF will produce deadlines
  // outside the window, which the gated checks must tolerate.
  for (const char* ssp : {"ud", "ed", "eqs", "eqf"}) {
    const auto out = run_combo("gf", ssp, 0.5);
    EXPECT_EQ(out.size(), 6u) << ssp;
  }
  // DIV with n*x < 1 spreads branch deadlines beyond the parent's: a
  // documented pathology the containment check explicitly stands down for
  // (custom strategies doing the same still abort — see EvilPsp below).
  const auto div_small = run_combo("div-0.2", "ud", 20.0);
  EXPECT_EQ(div_small.size(), 6u);
}

// --- corrupted SDA output trips the oracle ---------------------------------

struct EvilPsp final : core::PspStrategy {
  core::Time assign(const core::PspContext& ctx, int, core::Time) const
      override {
    return ctx.deadline + 5.0;  // outside the (feasible) parent window
  }
  std::string name() const override { return "evil-psp"; }
};

struct EvilSsp final : core::SspStrategy {
  core::Time assign(const core::SspContext& ctx) const override {
    return ctx.deadline - 1.0;  // final stage short of the composite's dl
  }
  std::string name() const override { return "evil-ssp"; }
};

TEST(InvariantOracleDeath, PspBranchBeyondParentWindowAborts) {
  OracleGuard guard(true);
  Sim s(std::make_shared<EvilPsp>(),
        std::shared_ptr<const core::SspStrategy>(core::make_ssp_strategy("ud")));
  EXPECT_DEATH(
      s.pm->submit(task::parse_notation("[A@0:1/1 || B@1:1/1]"), 20.0, 100, 1),
      "psp-branch-exceeds-parent-window");
}

TEST(InvariantOracleDeath, SspFinalStageNotPartitionAborts) {
  OracleGuard guard(true);
  Sim s(std::shared_ptr<const core::PspStrategy>(core::make_psp_strategy("ud")),
        std::make_shared<EvilSsp>());
  EXPECT_DEATH(
      s.pm->submit(task::parse_notation("[A@0:1/1 B@1:1/1]"), 20.0, 100, 1),
      "ssp-final-stage-not-partition");
}

TEST(InvariantOracleDeath, EvilStrategyRunsFineWithOracleOff) {
  OracleGuard guard(false);
  Sim s(std::make_shared<EvilPsp>(),
        std::shared_ptr<const core::SspStrategy>(core::make_ssp_strategy("ud")));
  s.pm->submit(task::parse_notation("[A@0:1/1 || B@1:1/1]"), 20.0, 100, 1);
  s.engine->run();
  EXPECT_EQ(s.terminal_deadlines.size(), 2u);
}

// --- corrupted heap state trips the oracle ---------------------------------

TaskPtr with_deadline(std::uint64_t id, double dl) {
  return task::make_local_task(id, 0, 0.0, 1.0, dl);
}

TEST(InvariantOracleDeath, HeapQueuePosCorruptionAborts) {
  OracleGuard guard(true);
  sched::ReadyQueue heap;
  TaskPtr a = with_deadline(1, 3.0);
  TaskPtr b = with_deadline(2, 5.0);
  heap.push(a);
  heap.push(b);
  // Sever the back-link the O(log n) remove path depends on.
  b->queue_pos = 7;
  EXPECT_DEATH(heap.validate(), "task-heap-queue-pos-identity");
}

TEST(InvariantOracleDeath, HeapOrderCorruptionAborts) {
  OracleGuard guard(true);
  sched::ReadyQueue heap;
  TaskPtr a = with_deadline(1, 3.0);
  TaskPtr b = with_deadline(2, 5.0);
  heap.push(a);
  heap.push(b);
  // Rewrite the root's key after insertion — exactly the corruption a
  // buggy in-place deadline update would cause.  The queue orders on the
  // key it stored at push, so the oracle reports the stale key.
  a->attrs.virtual_deadline = 9.0;
  EXPECT_DEATH(heap.validate(), "task-heap-stale-key");
}

// --- event queue / engine time sanity --------------------------------------

TEST(InvariantOracleDeath, NanEventTimeAborts) {
  OracleGuard guard(true);
  sim::EventQueue q;
  EXPECT_DEATH(q.push(std::numeric_limits<double>::quiet_NaN(), [] {}),
               "event-queue-nan-time");
}

TEST(InvariantOracleDeath, NonFiniteEngineTimeAborts) {
  OracleGuard guard(true);
  sim::Engine engine;
  EXPECT_DEATH(engine.at(std::numeric_limits<double>::infinity(), [] {}),
               "engine-non-finite-event-time");
  EXPECT_DEATH(engine.in(std::numeric_limits<double>::quiet_NaN(), [] {}),
               "engine-non-finite-delay");
}

TEST(InvariantOracle, EventQueueChurnStaysClean) {
  OracleGuard guard(true);
  sim::EventQueue q;
  std::vector<sim::EventId> ids;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 40; ++i) {
      ids.push_back(q.push(static_cast<double>((i * 7919) % 101), [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 3) {
      q.cancel(ids[i]);
    }
    ids.clear();
    while (!q.empty()) q.pop();
  }
  SUCCEED();
}

TEST(InvariantOracle, DirectValidateCallsAreCheapAndClean) {
  // validate() is also a public API (cadence aside): clean structures pass.
  OracleGuard guard(true);
  sched::ReadyQueue heap;
  for (int i = 0; i < 100; ++i) {
    heap.push(with_deadline(static_cast<std::uint64_t>(i + 1),
                            static_cast<double>((i * 31) % 17)));
  }
  heap.validate();
  while (heap.size() > 0) heap.pop();
  heap.validate();
  SUCCEED();
}

}  // namespace
