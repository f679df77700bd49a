// Tests for the workload sources: arrival rates, attribute distributions,
// Equation 2/3 deadline generation, distinct placement, graph shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "src/core/process_manager.hpp"
#include "src/exp/config.hpp"
#include "src/metrics/collector.hpp"
#include "src/sched/node.hpp"
#include "src/util/stats.hpp"
#include "src/workload/global_source.hpp"
#include "src/workload/local_source.hpp"

namespace {

using namespace sda;

TEST(LocalSource, RateAndAttributes) {
  sim::Engine engine;
  sched::Node node(engine, {});
  metrics::Collector collector;

  std::vector<task::TaskPtr> seen;
  util::RunningStat exec, slack;
  node.set_outcome_handler([&](const task::TaskPtr& t,
                               sched::Node::Outcome o) {
    if (o != sched::Node::Outcome::kCompleted) return;
    exec.add(t->attrs.exec_time);
    slack.add(t->attrs.slack());
    // Deadline relation dl = ar + ex + sl with slack in [1.25, 5].
    EXPECT_GE(t->attrs.slack(), 1.25);
    EXPECT_LE(t->attrs.slack(), 5.0);
    EXPECT_DOUBLE_EQ(t->attrs.virtual_deadline, t->attrs.real_deadline);
    EXPECT_EQ(t->kind, task::TaskKind::kLocal);
  });

  workload::LocalSource::Config lc;
  lc.lambda = 0.3;
  workload::LocalSource src(engine, node, collector, util::Rng(7), lc);
  src.start();
  engine.run_until(50000.0);

  EXPECT_NEAR(static_cast<double>(src.generated()), 15000.0, 400.0);
  EXPECT_NEAR(exec.mean(), 1.0, 0.03);            // exp(mean 1)
  EXPECT_NEAR(slack.mean(), (1.25 + 5.0) / 2, 0.03);  // uniform mean
}

TEST(LocalSource, ZeroRateGeneratesNothing) {
  sim::Engine engine;
  sched::Node node(engine, {});
  metrics::Collector collector;
  workload::LocalSource::Config lc;
  lc.lambda = 0.0;
  workload::LocalSource src(engine, node, collector, util::Rng(1), lc);
  src.start();
  engine.run_until(1000.0);
  EXPECT_EQ(src.generated(), 0u);
  EXPECT_EQ(engine.events_fired(), 0u);
}

TEST(LocalSource, Validation) {
  sim::Engine engine;
  sched::Node node(engine, {});
  metrics::Collector collector;
  workload::LocalSource::Config bad;
  bad.lambda = -1.0;
  EXPECT_THROW(
      workload::LocalSource(engine, node, collector, util::Rng(1), bad),
      std::invalid_argument);
  bad = {};
  bad.slack_min = 10.0;
  bad.slack_max = 1.0;
  EXPECT_THROW(
      workload::LocalSource(engine, node, collector, util::Rng(1), bad),
      std::invalid_argument);
  bad = {};
  bad.mean_exec = 0.0;
  EXPECT_THROW(
      workload::LocalSource(engine, node, collector, util::Rng(1), bad),
      std::invalid_argument);
}

TEST(LocalSource, PmAbortTimersKillTardyLocals) {
  sim::Engine engine;
  sched::Node node(engine, {});
  metrics::Collector collector;
  workload::LocalSource::Config lc;
  lc.lambda = 0.9;  // heavy single-node overload -> many tardy tasks
  lc.abort_at_real_deadline = true;
  workload::LocalSource src(engine, node, collector, util::Rng(3), lc);
  src.start();
  engine.run_until(20000.0);
  // With abortion at the real deadline, no task can *complete* late.
  EXPECT_GT(node.aborted_externally(), 0u);
  const auto counts = collector.counts(metrics::kLocalClass);
  EXPECT_EQ(counts.missed, counts.aborted);  // every miss is an abort
}

// Fixture giving a full engine + nodes + PM so global sources can dispatch.
class GlobalSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 6; ++i) {
      sched::Node::Config nc;
      nc.index = i;
      nodes.push_back(std::make_unique<sched::Node>(engine, nc));
      node_ptrs.push_back(nodes.back().get());
    }
    core::ProcessManager::Config pc;
    pc.psp = core::make_psp_strategy("ud");
    pc.ssp = core::make_ssp_strategy("ud");
    pm = std::make_unique<core::ProcessManager>(engine, node_ptrs,
                                                std::move(pc));
    for (auto& n : nodes) {
      n->set_outcome_handler(
          [this](const task::TaskPtr& t, sched::Node::Outcome o) {
            pm->handle_outcome(t, o);
          });
    }
  }

  sim::Engine engine;
  std::vector<std::unique_ptr<sched::Node>> nodes;
  std::vector<sched::Node*> node_ptrs;
  std::unique_ptr<core::ProcessManager> pm;
};

TEST_F(GlobalSourceTest, Equation2DeadlineAndDistinctPlacement) {
  std::vector<core::GlobalTaskRecord> recs;
  pm->set_global_handler(
      [&](const core::GlobalTaskRecord& r) { recs.push_back(r); });

  // Track per-subtask placement through the subtask handler.
  std::map<std::uint64_t, std::set<int>> placement;
  pm->set_subtask_handler([&](const task::SimpleTask& t) {
    // Equation 3: every subtask has at least the task's minimum slack.
    EXPECT_GE(t.attrs.slack(), 1.25 - 1e-9);
    placement[t.owner_run].insert(t.exec_node);
  });

  workload::GlobalSource::Config gc;
  gc.lambda = 0.05;
  workload::GlobalSource src(engine, *pm, util::Rng(11), gc,
                             workload::FlatShape{});
  src.start();
  engine.run_until(5000.0);

  EXPECT_GT(recs.size(), 100u);
  for (const auto& [run, sites] : placement) {
    EXPECT_EQ(sites.size(), 4u);  // n distinct nodes
  }
  for (const auto& r : recs) {
    EXPECT_EQ(r.subtask_count, 4);
    EXPECT_EQ(r.metrics_class, metrics::global_class(4));
    // dl - ar = max ex + slack >= slack_min.
    EXPECT_GE(r.real_deadline - r.arrival, 1.25 - 1e-9);
  }
}

TEST_F(GlobalSourceTest, NonHomogeneousSizes) {
  std::map<int, int> size_counts;
  pm->set_global_handler([&](const core::GlobalTaskRecord& r) {
    ++size_counts[r.subtask_count];
    EXPECT_EQ(r.metrics_class, metrics::global_class(r.subtask_count));
  });
  workload::GlobalSource::Config gc;
  gc.lambda = 0.05;
  workload::GlobalSource src(engine, *pm, util::Rng(13), gc,
                             workload::FlatShape{.n_min = 2, .n_max = 6});
  src.start();
  engine.run_until(20000.0);
  // All five sizes appear, roughly uniformly.
  for (int n = 2; n <= 6; ++n) {
    ASSERT_GT(size_counts[n], 0) << "n=" << n;
  }
  const double total = 0.05 * 20000.0;
  for (int n = 2; n <= 6; ++n) {
    EXPECT_NEAR(size_counts[n], total / 5.0, total / 5.0 * 0.25);
  }
}

TEST_F(GlobalSourceTest, ExpectedWorkHelper) {
  exp::ExperimentConfig c;
  c.n_min = 2;
  c.n_max = 6;
  EXPECT_DOUBLE_EQ(c.expected_global_work(), 4.0);
  c.n_min = c.n_max = 4;
  c.mu_subtask = 2.0;
  EXPECT_DOUBLE_EQ(c.expected_global_work(), 2.0);
  c.global_kind = exp::GlobalKind::kGraph;  // {1,4,1,4,1}: 11 subtasks
  c.mu_subtask = 1.0;
  EXPECT_DOUBLE_EQ(c.expected_global_work(), 11.0);
}

TEST_F(GlobalSourceTest, Validation) {
  const auto make = [&](workload::GlobalSource::Config gc,
                        workload::Shape shape) {
    workload::GlobalSource(engine, *pm, util::Rng(1), gc, std::move(shape));
  };
  EXPECT_THROW(make({}, workload::FlatShape{.n_min = 0}),
               std::invalid_argument);
  // n_max > k = 6: distinct nodes impossible.
  EXPECT_THROW(make({}, workload::FlatShape{.n_max = 7}),
               std::invalid_argument);
  EXPECT_THROW(make({.lambda = -0.1}, workload::FlatShape{}),
               std::invalid_argument);
  EXPECT_THROW(make({.slack_min = 6.0}, workload::FlatShape{}),
               std::invalid_argument);
  EXPECT_THROW(make({.burst_factor = 0.5}, workload::FlatShape{}),
               std::invalid_argument);
}

TEST_F(GlobalSourceTest, GraphSourceDrawsFigure14Shape) {
  const workload::Shape shape = workload::StagedShape{};
  util::Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    const workload::DrawnTask drawn = workload::draw(shape, rng);
    EXPECT_EQ(drawn.metrics_class, metrics::global_class(0));
    const task::TreePtr& t = drawn.tree;
    ASSERT_TRUE(t->is_serial());
    ASSERT_EQ(t->children.size(), 5u);
    EXPECT_TRUE(t->children[0]->is_leaf());
    EXPECT_TRUE(t->children[1]->is_parallel());
    EXPECT_EQ(t->children[1]->children.size(), 4u);
    EXPECT_TRUE(t->children[2]->is_leaf());
    EXPECT_TRUE(t->children[3]->is_parallel());
    EXPECT_TRUE(t->children[4]->is_leaf());
    EXPECT_EQ(task::leaf_count(*t), 11);
    EXPECT_TRUE(task::validate(*t).empty());
    // Distinct placement within each parallel stage.
    for (const auto& stage : t->children) {
      if (!stage->is_parallel()) continue;
      std::set<int> sites;
      for (const auto& leaf : stage->children) sites.insert(leaf->exec_node);
      EXPECT_EQ(sites.size(), stage->children.size());
    }
  }
}

TEST_F(GlobalSourceTest, GraphSourceRunsEndToEnd) {
  std::vector<core::GlobalTaskRecord> recs;
  pm->set_global_handler(
      [&](const core::GlobalTaskRecord& r) { recs.push_back(r); });
  workload::GlobalSource::Config gc;
  gc.lambda = 0.02;
  gc.slack_min = 6.25;
  gc.slack_max = 25.0;
  workload::GlobalSource src(engine, *pm, util::Rng(19), gc,
                             workload::StagedShape{});
  src.start();
  engine.run_until(10000.0);
  EXPECT_GT(recs.size(), 100u);
  for (const auto& r : recs) {
    EXPECT_EQ(r.subtask_count, 11);
    // Slack range [6.25, 25]: dl - ar >= critical path + 6.25 > 6.25.
    EXPECT_GE(r.real_deadline - r.arrival, 6.25);
  }
}

TEST_F(GlobalSourceTest, GraphSourceWithLinksInsertsMessages) {
  // Drawing never dispatches, so the fixture's 6 nodes suffice to inspect
  // the generated shape.
  const workload::Shape shape = workload::StagedShape{
      .link_nodes = {6, 7},  // beyond the k = 6 compute range
      .mean_msg_time = 0.5};
  util::Rng rng(23);
  for (int i = 0; i < 30; ++i) {
    const task::TreePtr t = workload::draw(shape, rng).tree;
    // {1,4,1,4,1} + 4 message legs between the 5 stages = 9 serial children.
    ASSERT_TRUE(t->is_serial());
    EXPECT_EQ(t->children.size(), 9u);
    EXPECT_EQ(task::leaf_count(*t), 15);
    for (std::size_t s = 1; s < t->children.size(); s += 2) {
      const task::TreeNode& msg = *t->children[s];
      EXPECT_TRUE(msg.is_leaf());
      EXPECT_EQ(msg.name, "msg");
      EXPECT_TRUE(msg.exec_node == 6 || msg.exec_node == 7);
    }
  }
}

TEST_F(GlobalSourceTest, GraphSourceRejectsLinkInComputeRange) {
  const auto make = [&](workload::StagedShape shape) {
    workload::GlobalSource(engine, *pm, util::Rng(1), {}, std::move(shape));
  };
  EXPECT_THROW(make({.link_nodes = {3}}),  // inside [0, 6)
               std::invalid_argument);
  EXPECT_THROW(make({.link_nodes = {6}, .mean_msg_time = 0.0}),
               std::invalid_argument);
}

TEST_F(GlobalSourceTest, GraphSourceValidation) {
  const auto make = [&](std::vector<int> widths) {
    workload::GlobalSource(engine, *pm, util::Rng(1), {},
                           workload::StagedShape{.stage_widths = widths});
  };
  EXPECT_THROW(make({}), std::invalid_argument);
  EXPECT_THROW(make({1, 0}), std::invalid_argument);
  EXPECT_THROW(make({1, 9}), std::invalid_argument);  // wider than k
}

}  // namespace
