// Tests for the bench output helpers (bench/common.hpp) — they feed every
// figure binary, so formatting regressions matter.
#include "bench/common.hpp"

#include <gtest/gtest.h>

namespace {

using namespace sda;

exp::SweepPoint point(double x, int cls, int finished, int missed, int reps) {
  exp::SweepPoint p;
  p.x = x;
  for (int rep = 0; rep < reps; ++rep) {
    metrics::Collector c;
    for (int i = 0; i < finished; ++i) {
      c.record(cls, 0.0, i < missed, false, 1.0);
    }
    p.report.add_replication(c);
  }
  return p;
}

TEST(BenchCommon, MdCellSingleReplication) {
  const auto p = point(0.5, metrics::kLocalClass, 10, 2, 1);
  EXPECT_EQ(bench::md_cell(p, metrics::kLocalClass), "20.0%");
}

TEST(BenchCommon, MdCellWithCi) {
  const auto p = point(0.5, metrics::kLocalClass, 10, 2, 2);
  const std::string cell = bench::md_cell(p, metrics::kLocalClass);
  EXPECT_NE(cell.find("20.0"), std::string::npos);
  EXPECT_NE(cell.find("\xc2\xb1"), std::string::npos);
}

TEST(BenchCommon, LoadSweepTablePrints) {
  exp::figures::LoadSweepSeries s{"ud", "ud", {}};
  s.points.push_back(point(0.3, metrics::kLocalClass, 10, 1, 1));
  s.points.push_back(point(0.6, metrics::kLocalClass, 10, 4, 1));
  testing::internal::CaptureStdout();
  bench::print_load_sweep_table({s}, "load");
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("MD_local(ud)"), std::string::npos);
  EXPECT_NE(out.find("0.30"), std::string::npos);
  EXPECT_NE(out.find("40.0%"), std::string::npos);
}

TEST(BenchCommon, SspTagInHeader) {
  exp::figures::LoadSweepSeries s{"div-1", "eqf", {}};
  s.points.push_back(point(0.5, metrics::kLocalClass, 10, 1, 1));
  testing::internal::CaptureStdout();
  bench::print_load_sweep_table({s}, "load");
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("eqf-div-1"), std::string::npos);
}

TEST(BenchCommon, ChartHandlesEmptySeries) {
  testing::internal::CaptureStdout();
  bench::chart_load_sweep({}, "load");
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("no data"), std::string::npos);
}

TEST(BenchCommon, CheckLineFormatsPercentages) {
  testing::internal::CaptureStdout();
  bench::check_line("MD_global", 0.251, 0.25);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("25.1%"), std::string::npos);
  EXPECT_NE(out.find("25.0%"), std::string::npos);
}

// Run control is key=value only: the args set the run length, and the
// header's run line keeps the format the benches have always printed.
TEST(BenchCommon, KvArgsSetRunLength) {
  exp::ExperimentConfig c = exp::baseline_config();
  char prog[] = "bench", length[] = "sim_time=2000", reps[] = "replications=1";
  char* argv[] = {prog, length, reps};
  bench::apply_kv_args(3, argv, c);
  EXPECT_DOUBLE_EQ(c.sim_time, 2000.0);
  EXPECT_EQ(c.replications, 1);
  EXPECT_EQ(bench::describe_run(c),
            "sim_time=2000 x 1 replications, warmup=5%, seed=20250707");
  EXPECT_EQ(bench::describe_run(exp::baseline_config()),
            "sim_time=200000 x 2 replications, warmup=5%, seed=20250707");
}

TEST(BenchCommon, KvArgsRejectTyposAndInvalidConfigs) {
  char prog[] = "bench", typo[] = "sim_tme=5", bare[] = "sim_time",
       unstable[] = "load=1.5";
  for (char* arg : {typo, bare, unstable}) {
    exp::ExperimentConfig c = exp::baseline_config();
    char* argv[] = {prog, arg};
    try {
      bench::apply_kv_args(2, argv, c);
      ADD_FAILURE() << "accepted " << arg;
    } catch (const std::invalid_argument& e) {
      const std::string err = e.what();
      if (arg == typo) {
        EXPECT_NE(err.find("did you mean 'sim_time'"), std::string::npos)
            << err;
      }
    }
  }
}

}  // namespace
