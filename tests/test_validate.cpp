// Unit tests for whole-config validation.
#include "src/exp/config.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace {

using namespace sda::exp;

TEST(Validate, BaselineIsValid) {
  EXPECT_TRUE(baseline_config().validate().empty());
  EXPECT_NO_THROW(baseline_config().validate_or_throw());
  EXPECT_TRUE(graph_config().validate().empty());
}

TEST(Validate, CatchesSystemProblems) {
  ExperimentConfig c = baseline_config();
  c.k = 0;
  EXPECT_FALSE(c.validate().empty());

  c = baseline_config();
  c.node_speeds = {1.0, 1.0};
  EXPECT_FALSE(c.validate().empty());

  c = baseline_config();
  c.node_speeds = {1, 1, 1, 1, 1, -1};
  EXPECT_FALSE(c.validate().empty());

  c = baseline_config();
  c.scheduler_policy = "random";
  EXPECT_FALSE(c.validate().empty());
}

TEST(Validate, PreemptionIsEdfOnly) {
  // Preemption compares virtual deadlines, so it is defined only when the
  // queue serves by them too.
  ExperimentConfig c = baseline_config();
  c.preemptive = true;
  EXPECT_TRUE(c.validate().empty());
  c.scheduler_policy = "EDF";
  EXPECT_TRUE(c.validate().empty());
  for (const char* policy : {"fifo", "spt", "llf", "LLF"}) {
    c.scheduler_policy = policy;
    const std::vector<std::string> problems = c.validate();
    ASSERT_EQ(problems.size(), 1u) << policy;
    EXPECT_NE(problems[0].find("preemptive"), std::string::npos) << policy;
  }
  c.preemptive = false;
  EXPECT_TRUE(c.validate().empty());
}

TEST(Validate, CatchesStrategyProblems) {
  ExperimentConfig c = baseline_config();
  c.psp = "div-0";
  EXPECT_FALSE(c.validate().empty());
  c = baseline_config();
  c.ssp = "eqz";
  EXPECT_FALSE(c.validate().empty());
}

TEST(Validate, CatchesWorkloadProblems) {
  ExperimentConfig c = baseline_config();
  c.load = 1.0;  // unstable
  EXPECT_FALSE(c.validate().empty());

  c = baseline_config();
  c.frac_local = 1.2;
  EXPECT_FALSE(c.validate().empty());

  c = baseline_config();
  c.n_max = 7;  // > k
  EXPECT_FALSE(c.validate().empty());

  c = baseline_config();
  c.slack_min = 9.0;  // > slack_max
  EXPECT_FALSE(c.validate().empty());

  c = baseline_config();
  c.local_burst_factor = 0.5;
  EXPECT_FALSE(c.validate().empty());

  c = graph_config();
  c.stage_widths = {1, 9};
  EXPECT_FALSE(c.validate().empty());

  c = graph_config();
  c.link_count = 2;
  c.mean_msg_time = 0.0;
  EXPECT_FALSE(c.validate().empty());
}

TEST(Validate, CatchesRunControlProblems) {
  ExperimentConfig c = baseline_config();
  c.sim_time = 0.0;
  EXPECT_FALSE(c.validate().empty());
  c = baseline_config();
  c.replications = 0;
  EXPECT_FALSE(c.validate().empty());
  c = baseline_config();
  c.warmup_fraction = 1.0;
  EXPECT_FALSE(c.validate().empty());
}

TEST(Validate, AdmissionBoundMustBeInZeroOne) {
  // The density bound is the controller's only feasibility test; above
  // 1 it no longer implies EDF feasibility.
  for (const double bound : {0.0, -0.5, 1.5}) {
    ExperimentConfig c = baseline_config();
    c.admission_util_bound = bound;
    // Unused by a simulation without admission=1 ...
    EXPECT_TRUE(c.validate().empty()) << bound;
    // ... but serving builds the controller regardless.
    ASSERT_EQ(c.validate_admission().size(), 1u) << bound;
    EXPECT_NE(c.validate_admission()[0].find("util_bound"), std::string::npos);
    c.admission = true;
    EXPECT_EQ(c.validate().size(), 1u) << bound;
  }
  ExperimentConfig c = baseline_config();
  EXPECT_TRUE(c.validate_admission().empty());
  c.admission_util_bound = 0.85;
  EXPECT_TRUE(c.validate_admission().empty());
  c.admission_enter_degraded = 0.95;  // above enter_shedding
  EXPECT_EQ(c.validate_admission().size(), 1u);
}

TEST(Validate, ReportsAllProblemsAtOnce) {
  ExperimentConfig c = baseline_config();
  c.k = -1;
  c.load = 2.0;
  c.psp = "nope";
  c.replications = 0;
  EXPECT_GE(c.validate().size(), 4u);
}

TEST(Validate, ThrowListsEveryProblem) {
  ExperimentConfig c = baseline_config();
  c.load = 2.0;
  c.psp = "nope";
  try {
    c.validate_or_throw();
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("load"), std::string::npos);
    EXPECT_NE(what.find("nope"), std::string::npos);
  }
}

TEST(Validate, ExecSpreadIsForFlatTasksOnly) {
  // The spread scales flat parallel subtasks; graph stages never drew it.
  ExperimentConfig c = graph_config();
  c.subtask_exec_spread = 3.0;
  const std::vector<std::string> problems = c.validate();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("subtask_exec_spread"), std::string::npos);
  c.subtask_exec_spread = 1.0;
  EXPECT_TRUE(c.validate().empty());
  c = baseline_config();
  c.subtask_exec_spread = 3.0;
  EXPECT_TRUE(c.validate().empty());
}

TEST(Validate, LinkCountIgnoredForParallelKind) {
  ExperimentConfig c = baseline_config();  // kParallel
  c.link_count = -5;                       // only meaningful for kGraph
  EXPECT_TRUE(c.validate().empty());
}

}  // namespace
