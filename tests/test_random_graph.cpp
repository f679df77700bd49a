// Tests for the random serial-parallel workload generator.
#include "src/workload/random_graph.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "src/sched/node.hpp"
#include "src/task/notation.hpp"

namespace {

using namespace sda;

class RandomGraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 6; ++i) {
      sched::Node::Config nc;
      nc.index = i;
      nodes.push_back(std::make_unique<sched::Node>(engine, nc));
      ptrs.push_back(nodes.back().get());
    }
    core::ProcessManager::Config pc;
    pc.psp = core::make_psp_strategy("div-1");
    pc.ssp = core::make_ssp_strategy("eqf");
    pm = std::make_unique<core::ProcessManager>(engine, ptrs, std::move(pc));
    for (auto& n : nodes) {
      n->set_outcome_handler(
          [this](const task::TaskPtr& t, sched::Node::Outcome o) {
            pm->handle_outcome(t, o);
          });
    }
  }

  sim::Engine engine;
  std::vector<std::unique_ptr<sched::Node>> nodes;
  std::vector<sched::Node*> ptrs;
  std::unique_ptr<core::ProcessManager> pm;
};

TEST_F(RandomGraphTest, DrawnTreesAreValidAndVaried) {
  workload::RandomGraphSource::Config gc;
  gc.lambda = 0.01;
  workload::RandomGraphSource src(engine, *pm, util::Rng(3), gc);
  std::set<int> leaf_counts;
  std::set<int> depths;
  for (int i = 0; i < 200; ++i) {
    const task::TreePtr t = src.draw_tree();
    EXPECT_FALSE(t->is_leaf());  // globals are composites
    EXPECT_TRUE(task::validate(*t).empty()) << task::to_notation(*t);
    EXPECT_LE(task::depth(*t), gc.max_depth + 1);
    leaf_counts.insert(task::leaf_count(*t));
    depths.insert(task::depth(*t));
    // Parallel composites place leaf children at distinct nodes.
    std::function<void(const task::TreeNode&)> check =
        [&](const task::TreeNode& n) {
          if (n.is_parallel()) {
            std::set<int> sites;
            int leaf_children = 0;
            for (const auto& c : n.children) {
              if (c->is_leaf()) {
                ++leaf_children;
                sites.insert(c->exec_node);
              }
            }
            EXPECT_EQ(static_cast<int>(sites.size()), leaf_children);
          }
          for (const auto& c : n.children) check(*c);
        };
    check(*t);
  }
  EXPECT_GT(leaf_counts.size(), 3u);  // genuinely heterogeneous shapes
  EXPECT_GT(depths.size(), 1u);
}

TEST_F(RandomGraphTest, CalibrationEstimatesMeanWork) {
  workload::RandomGraphSource::Config gc;
  gc.lambda = 0.01;
  workload::RandomGraphSource src(engine, *pm, util::Rng(4), gc);
  const double calibrated = src.calibrated_mean_work();
  EXPECT_GT(calibrated, 1.0);
  // Cross-check against a fresh sample.
  double total = 0.0;
  for (int i = 0; i < 500; ++i) total += task::total_ex(*src.draw_tree());
  EXPECT_NEAR(calibrated, total / 500.0, calibrated * 0.25);
}

TEST_F(RandomGraphTest, EndToEndRunCompletes) {
  std::uint64_t done = 0;
  pm->set_global_handler([&](const core::GlobalTaskRecord& r) {
    ++done;
    EXPECT_GT(r.subtask_count, 1);
  });
  workload::RandomGraphSource::Config gc;
  gc.lambda = 0.02;
  workload::RandomGraphSource src(engine, *pm, util::Rng(5), gc);
  src.start();
  engine.run_until(5000.0);
  EXPECT_GT(done, 50u);
  EXPECT_NEAR(static_cast<double>(src.generated()), 100.0, 30.0);
  EXPECT_LE(pm->live_runs(), src.generated() - done);
}

TEST_F(RandomGraphTest, Validation) {
  workload::RandomGraphSource::Config gc;
  gc.k = 1;
  EXPECT_THROW(workload::RandomGraphSource(engine, *pm, util::Rng(1), gc),
               std::invalid_argument);
  gc = {};
  gc.max_depth = 0;
  EXPECT_THROW(workload::RandomGraphSource(engine, *pm, util::Rng(1), gc),
               std::invalid_argument);
  gc = {};
  gc.min_children = 5;
  gc.max_children = 3;
  EXPECT_THROW(workload::RandomGraphSource(engine, *pm, util::Rng(1), gc),
               std::invalid_argument);
  gc = {};
  gc.leaf_probability = 1.0;
  EXPECT_THROW(workload::RandomGraphSource(engine, *pm, util::Rng(1), gc),
               std::invalid_argument);
}

TEST_F(RandomGraphTest, DeterministicForSameSeed) {
  workload::RandomGraphSource::Config gc;
  gc.lambda = 0.01;
  workload::RandomGraphSource a(engine, *pm, util::Rng(9), gc);
  workload::RandomGraphSource b(engine, *pm, util::Rng(9), gc);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(task::to_notation(*a.draw_tree(), true),
              task::to_notation(*b.draw_tree(), true));
  }
}

}  // namespace
