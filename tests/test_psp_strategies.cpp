// Unit and property tests for the PSP strategies (UD, DIV-x, GF).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/core/psp_div.hpp"
#include "src/core/psp_gf.hpp"
#include "src/core/psp_ud.hpp"
#include "src/core/strategy.hpp"
#include "src/exp/config.hpp"
#include "src/exp/runner.hpp"
#include "src/util/thread_pool.hpp"

namespace {

using namespace sda::core;

PspContext ctx(double now, double deadline, int n) {
  PspContext c;
  c.now = now;
  c.deadline = deadline;
  c.branch_count = n;
  return c;
}

TEST(PspUd, InheritsGlobalDeadline) {
  PspUltimateDeadline ud;
  EXPECT_DOUBLE_EQ(ud.assign(ctx(0.0, 9.0, 3), 0, 1.0), 9.0);
  EXPECT_DOUBLE_EQ(ud.assign(ctx(4.0, 9.0, 5), 2, 0.1), 9.0);
  EXPECT_EQ(ud.name(), "UD");
}

TEST(PspDiv, PaperFigure4Examples) {
  // T = [T1 || T2 || T3], arrival 0, deadline 9:
  // DIV-1 -> (9-0)/(3*1) + 0 = 3;  DIV-2 -> 9/6 = 1.5.
  PspDiv div1(1.0), div2(2.0);
  EXPECT_DOUBLE_EQ(div1.assign(ctx(0.0, 9.0, 3), 0, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(div2.assign(ctx(0.0, 9.0, 3), 0, 1.0), 1.5);
}

TEST(PspDiv, RelativeToArrival) {
  // Equation 1 is anchored at ar(T), not at absolute zero.
  PspDiv div1(1.0);
  EXPECT_DOUBLE_EQ(div1.assign(ctx(10.0, 19.0, 3), 0, 1.0), 13.0);
}

TEST(PspDiv, BranchIndexIrrelevant) {
  PspDiv div1(1.0);
  const auto c = ctx(2.0, 10.0, 4);
  for (int b = 0; b < 4; ++b) {
    EXPECT_DOUBLE_EQ(div1.assign(c, b, static_cast<double>(b)),
                     div1.assign(c, 0, 0.0));
  }
}

TEST(PspDiv, NameFormatting) {
  EXPECT_EQ(PspDiv(1.0).name(), "DIV-1");
  EXPECT_EQ(PspDiv(2.0).name(), "DIV-2");
  EXPECT_EQ(PspDiv(2.5).name(), "DIV-2.5");
}

TEST(PspDiv, RejectsNonPositiveX) {
  EXPECT_THROW(PspDiv(0.0), std::invalid_argument);
  EXPECT_THROW(PspDiv(-1.0), std::invalid_argument);
}

TEST(PspGf, SubtractsDelta) {
  PspGlobalsFirst gf(1000.0);
  EXPECT_DOUBLE_EQ(gf.assign(ctx(0.0, 9.0, 3), 0, 1.0), 9.0 - 1000.0);
  EXPECT_EQ(gf.name(), "GF");
  EXPECT_DOUBLE_EQ(gf.delta(), 1000.0);
}

TEST(PspGf, PreservesEdfOrderWithinGlobals) {
  // Two globals, deadlines 9 and 12: shifted deadlines keep their order.
  PspGlobalsFirst gf;
  const double a = gf.assign(ctx(0.0, 9.0, 2), 0, 1.0);
  const double b = gf.assign(ctx(0.0, 12.0, 2), 0, 1.0);
  EXPECT_LT(a, b);
  EXPECT_DOUBLE_EQ(b - a, 3.0);
}

TEST(PspGf, AlwaysBeatsAnyPlausibleLocalDeadline) {
  PspGlobalsFirst gf;  // default DELTA = 1e9
  const double assigned = gf.assign(ctx(1e6, 1e6 + 10.0, 4), 0, 1.0);
  EXPECT_LT(assigned, 0.0);  // far before any arrival time in the horizon
}

TEST(PspGf, RejectsNonPositiveDelta) {
  EXPECT_THROW(PspGlobalsFirst(0.0), std::invalid_argument);
  EXPECT_THROW(PspGlobalsFirst(-5.0), std::invalid_argument);
}

TEST(PspFactory, ParsesKnownNames) {
  EXPECT_EQ(make_psp_strategy("ud")->name(), "UD");
  EXPECT_EQ(make_psp_strategy("UD")->name(), "UD");
  EXPECT_EQ(make_psp_strategy("div-1")->name(), "DIV-1");
  EXPECT_EQ(make_psp_strategy("DIV-2")->name(), "DIV-2");
  EXPECT_EQ(make_psp_strategy("div-0.5")->name(), "DIV-0.5");
  EXPECT_EQ(make_psp_strategy("gf")->name(), "GF");
  EXPECT_EQ(make_psp_strategy("gf-100")->name(), "GF");
}

TEST(PspFactory, RejectsUnknownNames) {
  EXPECT_THROW(make_psp_strategy("div"), std::invalid_argument);
  EXPECT_THROW(make_psp_strategy("div-"), std::invalid_argument);
  EXPECT_THROW(make_psp_strategy("div-x"), std::invalid_argument);
  EXPECT_THROW(make_psp_strategy("div-0"), std::invalid_argument);
  EXPECT_THROW(make_psp_strategy("first"), std::invalid_argument);
  EXPECT_THROW(make_psp_strategy(""), std::invalid_argument);
}

// A strategy parameter parses as strictly as a config value, and DIV-x and
// GF need a finite positive one: "div-inf" put every branch deadline at
// `now`, "gf-inf" every virtual deadline at -inf, and "div- 2" and
// "div-0x1p1" both ran as DIV-2.  sda_run exits 64 on each.
TEST(PspFactory, RejectsLooseParameterSpellings) {
  for (const char* name : {"div-inf", "gf-inf", "div- 2", "div-0x1p1"}) {
    EXPECT_THROW(make_psp_strategy(name), std::invalid_argument) << name;
    sda::exp::ExperimentConfig c;
    c.psp = name;
    EXPECT_FALSE(c.validate().empty()) << name;
  }
}

// Fractional parameters still parse to the same strategy: the fingerprints
// of `sda_run psp=<name> sim_time=500 reps=1`.
TEST(PspFactory, FractionalParametersKeepTheirFingerprints) {
  for (const auto& [name, expected] :
       {std::pair{"div-2.5", std::uint64_t{0x12c2c807572593a7}},
        std::pair{"gf-0.001", std::uint64_t{0x6f5777eddae07527}}}) {
    sda::exp::ExperimentConfig c;
    c.psp = name;
    c.sim_time = 500.0;
    c.replications = 1;
    std::vector<std::uint64_t> fps;
    (void)sda::exp::run_experiment(c, sda::util::ThreadPool::shared(), &fps);
    ASSERT_EQ(fps.size(), 1u);
    EXPECT_EQ(fps[0], expected) << name;
  }
}

// ---------------------------------------------------------------------------
// Property sweep: DIV-x monotonicity in x and n (paper §7.1: the n*x product
// drives the priority boost).
// ---------------------------------------------------------------------------

class DivMonotonicity : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(DivMonotonicity, EarlierDeadlineForBiggerXAndN) {
  const auto [n, x] = GetParam();
  PspDiv div(x);
  const auto c = ctx(1.0, 21.0, n);
  const double assigned = div.assign(c, 0, 1.0);

  // Later than arrival for any positive allowance; within the deadline
  // whenever the divisor n*x is at least 1 (n*x < 1 legitimately *extends*
  // the deadline — the formula divides the allowance by n*x).
  EXPECT_GT(assigned, c.now);
  if (n * x >= 1.0) {
    EXPECT_LE(assigned, c.deadline);
  }

  // Monotone: bigger x gives an earlier (or equal) deadline.
  PspDiv bigger(x * 2.0);
  EXPECT_LT(bigger.assign(c, 0, 1.0), assigned);

  // Monotone in n: more branches give an earlier deadline.
  auto c_more = ctx(1.0, 21.0, n + 1);
  EXPECT_LT(div.assign(c_more, 0, 1.0), assigned);

  // The n*x product is what matters: DIV-x with n branches equals
  // DIV-(x*n) with 1 branch.
  PspDiv equivalent(x * n);
  EXPECT_NEAR(equivalent.assign(ctx(1.0, 21.0, 1), 0, 1.0), assigned, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DivMonotonicity,
    ::testing::Combine(::testing::Values(1, 2, 4, 6, 16),
                       ::testing::Values(0.25, 0.5, 1.0, 2.0, 10.0)));

// GF is a rigid translation: differences between any two assignments equal
// the differences of the composite deadlines.
class GfTranslation : public ::testing::TestWithParam<double> {};

TEST_P(GfTranslation, RigidShift) {
  const double delta = GetParam();
  PspGlobalsFirst gf(delta);
  for (double d1 : {3.0, 9.0, 27.0}) {
    for (double d2 : {4.0, 8.0, 100.0}) {
      const double a = gf.assign(ctx(0.0, d1, 3), 0, 1.0);
      const double b = gf.assign(ctx(0.0, d2, 3), 0, 1.0);
      EXPECT_NEAR(b - a, d2 - d1, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Deltas, GfTranslation,
                         ::testing::Values(1.0, 100.0, 1e9));

}  // namespace
