// Tests for the heterogeneity extensions: node speed factors, per-subtask
// execution-time spread, and state-aware placement — each exercised through
// both the Node API and the assembled runner.
#include <gtest/gtest.h>

#include "src/exp/runner.hpp"
#include "src/metrics/task_class.hpp"
#include "src/sched/node.hpp"
#include "src/sim/engine.hpp"

namespace {

using namespace sda;

TEST(NodeSpeed, ServiceTimeScales) {
  sim::Engine engine;
  sched::Node::Config nc;
  nc.speed = 2.0;  // twice as fast
  sched::Node node(engine, nc);
  auto t = task::make_local_task(1, 0, 0.0, 3.0, 10.0);
  node.submit(t);
  engine.run();
  EXPECT_DOUBLE_EQ(t->finished_at, 1.5);  // demand 3 at speed 2
  EXPECT_DOUBLE_EQ(node.busy_time(), 1.5);
}

TEST(NodeSpeed, SlowNode) {
  sim::Engine engine;
  sched::Node::Config nc;
  nc.speed = 0.5;
  sched::Node node(engine, nc);
  auto t = task::make_local_task(1, 0, 0.0, 3.0, 10.0);
  node.submit(t);
  engine.run();
  EXPECT_DOUBLE_EQ(t->finished_at, 6.0);
}

TEST(NodeSpeed, PreemptionAccountsInDemandUnits) {
  sim::Engine engine;
  sched::Node::Config nc;
  nc.speed = 2.0;
  nc.preemptive = true;
  sched::Node node(engine, nc);
  auto big = task::make_local_task(1, 0, 0.0, 8.0, 100.0);  // 4 wall units
  node.submit(big);
  engine.at(1.0, [&] {
    node.submit(task::make_local_task(2, 0, 1.0, 2.0, 2.5));  // 1 wall unit
  });
  engine.run();
  // big: runs [0,1) consuming 2 demand, preempted with 6 left, resumes at 2
  // for 3 wall units -> finishes at 5.
  EXPECT_DOUBLE_EQ(big->finished_at, 5.0);
}

TEST(NodeSpeed, RejectsNonPositive) {
  sim::Engine engine;
  sched::Node::Config nc;
  nc.speed = 0.0;
  EXPECT_THROW(
      sched::Node(engine, nc),
      std::invalid_argument);
}

TEST(RunnerHeterogeneity, NodeSpeedsValidated) {
  exp::ExperimentConfig c = exp::baseline_config();
  c.sim_time = 500.0;
  c.node_speeds = {1.0, 1.0};  // wrong length (k = 6)
  EXPECT_THROW(exp::run_once(c, 1), std::invalid_argument);
}

TEST(RunnerHeterogeneity, MeanOneSpeedsKeepUtilizationNearLoad) {
  exp::ExperimentConfig c = exp::baseline_config();
  c.sim_time = 20000.0;
  c.node_speeds = {0.5, 0.75, 1.0, 1.0, 1.25, 1.5};  // mean 1.0
  const auto r = exp::run_once(c, 3);
  // The slow node runs hotter, fast nodes cooler; the *mean* utilization
  // deviates from load because per-node rho_i = load/speed_i averages
  // above load (Jensen).  Sanity: stable and in a plausible band.
  EXPECT_GT(r.mean_utilization, 0.45);
  EXPECT_LT(r.mean_utilization, 0.75);
  EXPECT_GT(r.collector.total_finished(), 1000u);
}

TEST(RunnerHeterogeneity, SlowNodesRaiseMissRates) {
  exp::ExperimentConfig base = exp::baseline_config();
  base.sim_time = 40000.0;
  const auto homog = exp::run_once(base, 4);
  exp::ExperimentConfig hetero = base;
  hetero.node_speeds = {0.5, 0.75, 1.0, 1.0, 1.25, 1.5};
  const auto r = exp::run_once(hetero, 4);
  EXPECT_GT(r.collector.counts(metrics::global_class(4)).miss_rate(),
            homog.collector.counts(metrics::global_class(4)).miss_rate());
}

TEST(RunnerHeterogeneity, ExecSpreadRunsAndLoadsCorrectly) {
  exp::ExperimentConfig c = exp::baseline_config();
  c.sim_time = 30000.0;
  c.subtask_exec_spread = 4.0;
  const auto r = exp::run_once(c, 5);
  // The load solver compensates for E[s^U] > 1, so utilization ~ load.
  EXPECT_NEAR(r.mean_utilization, 0.5, 0.04);
  EXPECT_GT(r.collector.counts(metrics::global_class(4)).finished, 100u);
}

TEST(RunnerHeterogeneity, LeastQueuedPlacementHelpsGlobals) {
  exp::ExperimentConfig c = exp::baseline_config();
  c.sim_time = 40000.0;
  c.load = 0.6;
  const auto uniform = exp::run_once(c, 6);
  c.placement = "least-queued";
  const auto balanced = exp::run_once(c, 6);
  // Placing subtasks on idle nodes lowers their queueing time; globals
  // should miss (weakly) less often.
  EXPECT_LE(balanced.collector.counts(metrics::global_class(4)).miss_rate(),
            uniform.collector.counts(metrics::global_class(4)).miss_rate() +
                0.01);
}

TEST(RunnerHeterogeneity, UnknownPlacementThrows) {
  exp::ExperimentConfig c = exp::baseline_config();
  c.sim_time = 100.0;
  c.placement = "hash-ring";
  EXPECT_THROW(exp::run_once(c, 1), std::invalid_argument);
}

}  // namespace
