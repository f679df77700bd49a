// Unit tests for subtask placement policies.
#include "src/workload/placement.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "src/sched/node.hpp"
#include "src/sim/engine.hpp"

namespace {

using namespace sda;
using workload::LeastQueuedPlacement;
using workload::make_placement;
using workload::UniformPlacement;

TEST(UniformPlacementTest, DistinctAndInRange) {
  UniformPlacement p;
  util::Rng rng(1);
  int out[3];
  for (int trial = 0; trial < 500; ++trial) {
    p.choose(6, 3, rng, out);
    std::set<int> s(out, out + 3);
    EXPECT_EQ(s.size(), 3u);
    for (int v : out) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 6);
    }
  }
  EXPECT_EQ(p.name(), "uniform");
}

TEST(UniformPlacementTest, RejectsCountOverK) {
  UniformPlacement p;
  util::Rng rng(1);
  int out[8];
  EXPECT_THROW(p.choose(4, 5, rng, out), std::invalid_argument);
}

class LeastQueuedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 4; ++i) {
      sched::Node::Config nc;
      nc.index = i;
      nodes.push_back(std::make_unique<sched::Node>(engine, nc));
      views.push_back(nodes.back().get());
    }
  }

  void occupy(int node, int tasks) {
    for (int j = 0; j < tasks; ++j) {
      nodes[static_cast<std::size_t>(node)]->submit(task::make_local_task(
          next_id++, node, engine.now(), 100.0, 1000.0));
    }
  }

  sim::Engine engine;
  std::vector<std::unique_ptr<sched::Node>> nodes;
  std::vector<const sched::Node*> views;
  std::uint64_t next_id = 1;
};

TEST_F(LeastQueuedTest, PicksIdleNodes) {
  occupy(0, 3);
  occupy(1, 2);
  // Nodes 2 and 3 are idle; a choice of 2 must pick exactly those.
  LeastQueuedPlacement p(views);
  util::Rng rng(5);
  int out[2];
  p.choose(4, 2, rng, out);
  const std::set<int> chosen(out, out + 2);
  EXPECT_TRUE(chosen.count(2) == 1 && chosen.count(3) == 1);
}

TEST_F(LeastQueuedTest, OrdersByOccupancy) {
  occupy(0, 3);
  occupy(1, 1);
  occupy(2, 2);
  LeastQueuedPlacement p(views);
  util::Rng rng(5);
  int out[3];
  p.choose(4, 3, rng, out);
  // node 3 idle (0), node 1 (1), node 2 (2): node 0 (3) must be excluded.
  const std::set<int> chosen(out, out + 3);
  EXPECT_EQ(chosen.count(0), 0u);
}

TEST_F(LeastQueuedTest, TiesSpreadAcrossNodes) {
  // All idle: over many draws each node should be picked sometimes.
  LeastQueuedPlacement p(views);
  util::Rng rng(6);
  std::set<int> seen;
  int out[1];
  for (int i = 0; i < 200; ++i) {
    p.choose(4, 1, rng, out);
    seen.insert(out[0]);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST_F(LeastQueuedTest, RejectsNullNode) {
  views.push_back(nullptr);
  EXPECT_THROW(LeastQueuedPlacement bad(views), std::invalid_argument);
}

TEST_F(LeastQueuedTest, Factory) {
  EXPECT_EQ(make_placement("uniform", {})->name(), "uniform");
  EXPECT_EQ(make_placement("least-queued", views)->name(), "least-queued");
  EXPECT_THROW(make_placement("round-robin", {}), std::invalid_argument);
}

}  // namespace
