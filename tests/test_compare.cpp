// Tests for the scorecard mechanics plus a shortened reproduction battery
// as a regression gate (the full-length battery is bench/reproduce_all).
#include "src/exp/compare.hpp"

#include <gtest/gtest.h>

namespace {

using namespace sda::exp::compare;

TEST(Scorecard, AddAndCount) {
  Scorecard c;
  c.add("a", "claim a", true);
  c.add("b", "claim b", false, "detail");
  EXPECT_EQ(c.checks().size(), 2u);
  EXPECT_EQ(c.failures(), 1u);
  EXPECT_FALSE(c.all_passed());
}

TEST(Scorecard, CheckNear) {
  Scorecard c;
  c.check_near("x", "close", 0.25, 0.26, 0.02);
  c.check_near("y", "far", 0.25, 0.40, 0.02);
  EXPECT_TRUE(c.checks()[0].pass);
  EXPECT_FALSE(c.checks()[1].pass);
  EXPECT_NE(c.checks()[0].detail.find("0.25"), std::string::npos);
}

TEST(Scorecard, CheckLess) {
  Scorecard c;
  c.check_less("x", "strictly", 1.0, 2.0);
  c.check_less("y", "violated", 2.0, 1.0);
  c.check_less("z", "within margin", 2.0, 1.95, 0.1);
  EXPECT_TRUE(c.checks()[0].pass);
  EXPECT_FALSE(c.checks()[1].pass);
  EXPECT_TRUE(c.checks()[2].pass);
}

TEST(Scorecard, RenderShowsVerdicts) {
  Scorecard c;
  c.add("good", "works", true);
  c.add("bad", "broken", false);
  const std::string out = c.render();
  EXPECT_NE(out.find("PASS"), std::string::npos);
  EXPECT_NE(out.find("FAIL"), std::string::npos);
  EXPECT_NE(out.find("1/2 checks passed"), std::string::npos);
}

// A shortened battery as a regression gate.  30k time units x 1 rep keeps
// the test under ~30s while leaving enough statistical resolution for the
// battery's tolerances (they assume >= ~50k, so allow a small number of
// marginal numeric misses — but never more than 3 of ~25 checks).
TEST(ReproductionBattery, ShortRunMostlyPasses) {
  sda::exp::ExperimentConfig config = sda::exp::baseline_config();
  config.sim_time = 30000.0;
  config.replications = 1;
  config.warmup_fraction = 0.05;
  config.seed = 20250707;
  const Scorecard card = run_reproduction_battery(config);
  EXPECT_GE(card.checks().size(), 20u);
  EXPECT_LE(card.failures(), 3u) << card.render();
}

}  // namespace
