// Tests for the random serial-parallel task shape.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <set>

#include "src/metrics/task_class.hpp"
#include "src/sched/node.hpp"
#include "src/task/notation.hpp"
#include "src/workload/global_source.hpp"

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
  const workload::RandomShape shape{};
  util::Rng rng(3);
  std::set<int> leaf_counts;
  std::set<int> depths;
  for (int i = 0; i < 200; ++i) {
    const workload::DrawnTask drawn = workload::draw(shape, rng);
    EXPECT_EQ(drawn.metrics_class, metrics::global_class(0));
    const task::TreePtr& t = drawn.tree;
    EXPECT_FALSE(t->is_leaf());  // globals are composites
    EXPECT_TRUE(task::validate(*t).empty()) << task::to_notation(*t);
    EXPECT_LE(task::depth(*t), shape.max_depth + 1);
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
  const workload::RandomShape shape{};
  util::Rng rng(4);
  util::Rng calibration = rng.split();
  const double calibrated = workload::mean_total_ex(shape, calibration);
  EXPECT_GT(calibrated, 1.0);
  // Cross-check against a fresh sample.
  double total = 0.0;
  for (int i = 0; i < 500; ++i) {
    total += task::total_ex(*workload::draw(shape, rng).tree);
  }
  EXPECT_NEAR(calibrated, total / 500.0, calibrated * 0.25);
}

TEST_F(RandomGraphTest, EndToEndRunCompletes) {
  std::uint64_t done = 0;
  pm->set_global_handler([&](const core::GlobalTaskRecord& r) {
    ++done;
    EXPECT_GT(r.subtask_count, 1);
  });
  workload::GlobalSource::Config gc;
  gc.lambda = 0.02;
  gc.slack_min = 2.5;
  gc.slack_max = 10.0;
  workload::GlobalSource src(engine, *pm, util::Rng(5), gc,
                             workload::RandomShape{});
  src.start();
  engine.run_until(5000.0);
  EXPECT_GT(done, 50u);
  EXPECT_NEAR(static_cast<double>(src.generated()), 100.0, 30.0);
  EXPECT_LE(pm->live_runs(), src.generated() - done);
}

TEST_F(RandomGraphTest, Validation) {
  const auto make = [&](workload::RandomShape shape) {
    workload::GlobalSource(engine, *pm, util::Rng(1), {}, shape);
  };
  EXPECT_THROW(make({.k = 1}), std::invalid_argument);
  EXPECT_THROW(make({.max_depth = 0}), std::invalid_argument);
  EXPECT_THROW(make({.min_children = 5, .max_children = 3}),
               std::invalid_argument);
  EXPECT_THROW(make({.leaf_probability = 1.0}), std::invalid_argument);
  util::Rng rng(1);
  EXPECT_THROW(
      (void)workload::mean_total_ex({.leaf_probability = 1.0}, rng),
      std::invalid_argument);
}

TEST_F(RandomGraphTest, DeterministicForSameSeed) {
  const workload::RandomShape shape{};
  util::Rng a(9);
  util::Rng b(9);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(task::to_notation(*workload::draw(shape, a).tree, true),
              task::to_notation(*workload::draw(shape, b).tree, true));
  }
}

// Pins the draw sequence and the calibration at a fixed seed: an FNV-1a
// hash over the first 200 trees' attributed notation, and the bits of the
// calibrated mean work (drawn on the arrival stream's first split, the
// order bench/ablation_random_shapes uses).  A change that moves either
// changes every random-shape workload.
TEST_F(RandomGraphTest, PinnedDrawSequenceAndCalibration) {
  const workload::RandomShape shape{};
  util::Rng rng(2024);
  util::Rng calibration = rng.split();
  const double mean = workload::mean_total_ex(shape, calibration);
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (int i = 0; i < 200; ++i) {
    for (const char ch :
         task::to_notation(*workload::draw(shape, rng).tree, true)) {
      hash = (hash ^ static_cast<unsigned char>(ch)) * 0x100000001b3ull;
    }
  }
  std::uint64_t bits = 0;
  std::memcpy(&bits, &mean, sizeof bits);
  EXPECT_EQ(hash, 0xeefeb37a70010cc5ull);
  EXPECT_EQ(bits, 0x4026f2b67b584190ull) << mean;
}

}  // namespace
