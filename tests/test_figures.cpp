// Smoke tests for the figure helpers (tiny runs; shape checks only live in
// the bench binaries, which use longer horizons).
#include "src/exp/figures.hpp"

#include <gtest/gtest.h>

#include "src/metrics/task_class.hpp"

namespace {

using namespace sda;
using namespace sda::exp;

TEST(Linspace, Basics) {
  const auto v = linspace(0.0, 1.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v.front(), 0.0);
  EXPECT_DOUBLE_EQ(v[2], 0.5);
  EXPECT_DOUBLE_EQ(v.back(), 1.0);
  EXPECT_EQ(linspace(3.0, 9.0, 1), std::vector<double>{3.0});
  EXPECT_THROW(linspace(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Figures, DefaultLoadsCoverIntermediateToHigh) {
  const auto loads = figures::default_loads();
  ASSERT_GE(loads.size(), 5u);
  EXPECT_DOUBLE_EQ(loads.front(), 0.3);
  EXPECT_GE(loads.back(), 0.8);
  for (std::size_t i = 1; i < loads.size(); ++i) {
    EXPECT_GT(loads[i], loads[i - 1]);
  }
  // Contains 0.5, the anchor for all in-text checks.
  EXPECT_NE(std::find(loads.begin(), loads.end(), 0.5), loads.end());
}

TEST(Figures, SweepAppliesVariable) {
  ExperimentConfig base = baseline_config();
  base.sim_time = 2000.0;
  base.replications = 1;
  const auto points =
      sweep(base, {0.3, 0.6},
            [](ExperimentConfig& c, double load) { c.load = load; });
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0].x, 0.3);
  EXPECT_DOUBLE_EQ(points[1].x, 0.6);
  // Higher load, higher local miss rate even on a tiny run.
  EXPECT_LT(figures::md(points[0], metrics::kLocalClass),
            figures::md(points[1], metrics::kLocalClass) + 0.05);
}

TEST(Figures, LoadSweepProducesOneSeriesPerStrategy) {
  ExperimentConfig base = baseline_config();
  base.sim_time = 2000.0;
  base.replications = 1;
  const auto series =
      figures::load_sweep(base, {{"ud", "ud"}, {"div-1", "ud"}}, {0.5});
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].psp, "ud");
  EXPECT_EQ(series[1].psp, "div-1");
  ASSERT_EQ(series[0].points.size(), 1u);
  EXPECT_GT(series[0].points[0].report.summary(metrics::kLocalClass)
                .finished_total,
            0u);
}

TEST(Figures, PooledGlobalMd) {
  ExperimentConfig base = baseline_config();
  base.sim_time = 4000.0;
  base.replications = 1;
  base.n_min = 2;
  base.n_max = 6;
  const auto points = sweep(base, {0.5},
                            [](ExperimentConfig& c, double l) { c.load = l; });
  const double pooled = figures::md_global_pooled(points[0]);
  EXPECT_GT(pooled, 0.0);
  EXPECT_LT(pooled, 1.0);
  // Pooled MD lies between the extreme per-n MDs.
  const double md2 = figures::md(points[0], metrics::global_class(2));
  const double md6 = figures::md(points[0], metrics::global_class(6));
  EXPECT_GE(pooled, std::min(md2, md6) - 1e-9);
  EXPECT_LE(pooled, std::max(md2, md6) + 1e-9);
}

TEST(Figures, MdHelpersOnUnknownClass) {
  ExperimentConfig base = baseline_config();
  base.sim_time = 1000.0;
  base.replications = 1;
  const auto points = sweep(base, {0.5},
                            [](ExperimentConfig& c, double l) { c.load = l; });
  EXPECT_DOUBLE_EQ(figures::md(points[0], 9999), 0.0);
  EXPECT_DOUBLE_EQ(figures::md_hw(points[0], 9999), 0.0);
}

}  // namespace
