// Systematic edge conditions across the stack: degenerate demands, zero
// slack, single-node systems, empty workload mixes, expired deadlines at
// submission, extreme strategy parameters.
#include <gtest/gtest.h>

#include <memory>

#include "src/core/process_manager.hpp"
#include "src/exp/runner.hpp"
#include "src/metrics/task_class.hpp"
#include "src/sched/node.hpp"
#include "src/task/notation.hpp"

namespace {

using namespace sda;

TEST(EdgeCases, ZeroExecutionTimeTaskCompletesInstantly) {
  sim::Engine engine;
  sched::Node node(engine, {});
  auto t = task::make_local_task(1, 0, 0.0, 0.0, 1.0);
  node.submit(t);
  engine.run();
  EXPECT_EQ(t->state, task::TaskState::kCompleted);
  EXPECT_DOUBLE_EQ(t->finished_at, 0.0);
  EXPECT_TRUE(t->met_real_deadline());
}

TEST(EdgeCases, ZeroSlackTaskMeetsExactly) {
  sim::Engine engine;
  sched::Node node(engine, {});
  auto t = task::make_local_task(1, 0, 0.0, 2.0, 2.0);  // dl == ex
  node.submit(t);
  engine.run();
  EXPECT_TRUE(t->met_real_deadline());
}

TEST(EdgeCases, DeadlineAlreadyExpiredAtSubmission) {
  sim::Engine engine;
  sched::Node node(engine, {});
  bool completed = false;
  node.set_outcome_handler([&](const task::TaskPtr& t,
                               sched::Node::Outcome o) {
    if (o != sched::Node::Outcome::kCompleted) return;
    completed = true;
    EXPECT_FALSE(t->met_real_deadline());
  });
  engine.at(5.0, [&] {
    node.submit(task::make_local_task(1, 0, 5.0, 1.0, 3.0));  // dl in past
  });
  engine.run();
  EXPECT_TRUE(completed);  // no abortion configured: it runs, late
}

TEST(EdgeCases, GlobalTaskWithZeroDemandSubtasks) {
  sim::Engine engine;
  std::vector<std::unique_ptr<sched::Node>> nodes;
  std::vector<sched::Node*> ptrs;
  for (int i = 0; i < 2; ++i) {
    sched::Node::Config nc;
    nc.index = i;
    nodes.push_back(std::make_unique<sched::Node>(engine, nc));
    ptrs.push_back(nodes.back().get());
  }
  core::ProcessManager::Config pc;
  pc.psp = core::make_psp_strategy("div-1");
  pc.ssp = core::make_ssp_strategy("eqf");
  core::ProcessManager pm(engine, ptrs, std::move(pc));
  for (auto& n : nodes) {
    n->set_outcome_handler(
        [&pm](const task::TaskPtr& t, sched::Node::Outcome o) {
          pm.handle_outcome(t, o);
        });
  }
  bool done = false;
  pm.set_global_handler([&](const core::GlobalTaskRecord& r) {
    done = true;
    EXPECT_FALSE(r.missed);
    EXPECT_DOUBLE_EQ(r.total_work, 0.0);
  });
  pm.submit(task::parse_notation("[A@0:0/0 || B@1:0/0]"), 1.0, 100, 1);
  engine.run();
  EXPECT_TRUE(done);
}

TEST(EdgeCases, SingleNodeSystem) {
  exp::ExperimentConfig c = exp::baseline_config();
  c.k = 1;
  c.n_min = c.n_max = 1;  // "global" tasks of one subtask
  c.sim_time = 10000.0;
  c.replications = 1;
  const auto r = exp::run_once(c, 5);
  EXPECT_NEAR(r.mean_utilization, 0.5, 0.05);
  // With n = 1 there is no PSP amplification: global MD ~ subtask MD.
  const double mg = r.collector.counts(metrics::global_class(1)).miss_rate();
  const double ms = r.collector.counts(metrics::kSubtaskClass).miss_rate();
  EXPECT_DOUBLE_EQ(mg, ms);
}

TEST(EdgeCases, PureLocalWorkload) {
  exp::ExperimentConfig c = exp::baseline_config();
  c.frac_local = 1.0;
  c.sim_time = 5000.0;
  c.replications = 1;
  const auto r = exp::run_once(c, 6);
  EXPECT_EQ(r.globals_generated, 0u);
  EXPECT_GT(r.collector.counts(metrics::kLocalClass).finished, 1000u);
}

TEST(EdgeCases, PureGlobalWorkload) {
  exp::ExperimentConfig c = exp::baseline_config();
  c.frac_local = 0.0;
  c.sim_time = 5000.0;
  c.replications = 1;
  const auto r = exp::run_once(c, 7);
  EXPECT_EQ(r.locals_generated, 0u);
  EXPECT_GT(r.globals_generated, 100u);
}

TEST(EdgeCases, ZeroLoadSystemStaysIdle) {
  exp::ExperimentConfig c = exp::baseline_config();
  c.load = 0.0;
  c.sim_time = 1000.0;
  c.replications = 1;
  const auto r = exp::run_once(c, 8);
  EXPECT_EQ(r.events_fired, 0u);
  EXPECT_DOUBLE_EQ(r.mean_utilization, 0.0);
}

TEST(EdgeCases, ExtremeDivXStillWorks) {
  exp::ExperimentConfig c = exp::baseline_config();
  c.psp = "div-1000000";
  c.sim_time = 5000.0;
  c.replications = 1;
  const auto r = exp::run_once(c, 9);
  // DIV-huge behaves like GF-minus-epsilon among globals: system stays sane.
  EXPECT_GT(r.collector.counts(metrics::global_class(4)).finished, 100u);
  EXPECT_LE(r.collector.counts(metrics::global_class(4)).miss_rate(), 1.0);
}

TEST(EdgeCases, FractionalDivX) {
  // x < 1 *extends* virtual deadlines beyond UD (deprioritizing globals):
  // legal, and MD_global should be at least UD's.
  exp::ExperimentConfig c = exp::baseline_config();
  c.sim_time = 20000.0;
  c.replications = 1;
  const auto ud = exp::run_once(c, 10);
  c.psp = "div-0.125";
  const auto div_eighth = exp::run_once(c, 10);
  EXPECT_GE(div_eighth.collector.counts(metrics::global_class(4)).miss_rate(),
            ud.collector.counts(metrics::global_class(4)).miss_rate() - 0.02);
}

TEST(EdgeCases, NestedSingleBranchCompositesCollapse) {
  // [[[A]]] is just A through the notation layer; the PM handles it.
  const auto tree = task::parse_notation("[[[A@0:1]]]");
  EXPECT_TRUE(tree->is_leaf());
}

TEST(EdgeCases, WarmupLongerThanAnyTaskStillSane) {
  exp::ExperimentConfig c = exp::baseline_config();
  c.sim_time = 2000.0;
  c.warmup_fraction = 0.99;  // almost everything discarded
  c.replications = 1;
  const auto r = exp::run_once(c, 11);
  // Very few samples, but no crash and rates stay probabilities.
  const auto counts = r.collector.counts(metrics::kLocalClass);
  EXPECT_LE(counts.missed, counts.finished);
}

TEST(EdgeCases, PerNodeUtilizationsExposed) {
  exp::ExperimentConfig c = exp::baseline_config();
  c.sim_time = 5000.0;
  c.replications = 1;
  const auto r = exp::run_once(c, 12);
  ASSERT_EQ(r.node_utilizations.size(), 6u);
  for (double u : r.node_utilizations) {
    EXPECT_GT(u, 0.2);
    EXPECT_LT(u, 0.9);
  }
}

}  // namespace
