// Unit tests for per-class miss accounting.
#include "src/metrics/collector.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace {

using namespace sda;
using metrics::Collector;

task::SimpleTask terminal_local(double arrival, double finished, double dl,
                                bool aborted = false, double ex = 1.0) {
  task::SimpleTask t;
  t.kind = task::TaskKind::kLocal;
  t.metrics_class = metrics::kLocalClass;
  t.attrs.arrival = arrival;
  t.attrs.exec_time = ex;
  t.attrs.real_deadline = dl;
  t.finished_at = finished;
  t.state = aborted ? task::TaskState::kAborted : task::TaskState::kCompleted;
  return t;
}

TEST(ClassNames, Defaults) {
  EXPECT_EQ(metrics::default_class_name(metrics::kLocalClass), "local");
  EXPECT_EQ(metrics::default_class_name(metrics::kSubtaskClass), "subtask");
  EXPECT_EQ(metrics::default_class_name(metrics::global_class(4)),
            "global(n=4)");
  EXPECT_EQ(metrics::default_class_name(42), "class-42");
  EXPECT_TRUE(metrics::is_global_class(metrics::global_class(0)));
  EXPECT_FALSE(metrics::is_global_class(metrics::kSubtaskClass));
}

TEST(Collector, MissRateBasics) {
  Collector c;
  c.record_simple(terminal_local(0.0, 5.0, 10.0));   // met
  c.record_simple(terminal_local(0.0, 12.0, 10.0));  // missed (late)
  c.record_simple(terminal_local(0.0, 10.0, 10.0));  // met (exactly on time)
  const auto counts = c.counts(metrics::kLocalClass);
  EXPECT_EQ(counts.finished, 3u);
  EXPECT_EQ(counts.missed, 1u);
  EXPECT_EQ(counts.aborted, 0u);
  EXPECT_NEAR(counts.miss_rate(), 1.0 / 3.0, 1e-12);
}

TEST(Collector, AbortedCountsAsMissed) {
  Collector c;
  c.record_simple(terminal_local(0.0, 3.0, 10.0, /*aborted=*/true));
  const auto counts = c.counts(metrics::kLocalClass);
  EXPECT_EQ(counts.missed, 1u);
  EXPECT_EQ(counts.aborted, 1u);
}

TEST(Collector, NonTerminalRejected) {
  Collector c;
  task::SimpleTask t = terminal_local(0.0, 1.0, 2.0);
  t.state = task::TaskState::kRunning;
  EXPECT_THROW(c.record_simple(t), std::logic_error);
}

TEST(Collector, WarmupFiltersByArrival) {
  Collector c;
  c.set_warmup(100.0);
  c.record_simple(terminal_local(50.0, 120.0, 110.0));   // arrived in warmup
  c.record_simple(terminal_local(150.0, 160.0, 155.0));  // counted, missed
  const auto counts = c.counts(metrics::kLocalClass);
  EXPECT_EQ(counts.finished, 1u);
  EXPECT_EQ(counts.missed, 1u);
}

TEST(Collector, WorkWeightedAccounting) {
  Collector c;
  c.record_simple(terminal_local(0.0, 5.0, 10.0, false, 3.0));   // met, work 3
  c.record_simple(terminal_local(0.0, 12.0, 10.0, false, 1.0));  // miss, work 1
  const auto counts = c.counts(metrics::kLocalClass);
  EXPECT_DOUBLE_EQ(counts.work_total, 4.0);
  EXPECT_DOUBLE_EQ(counts.work_missed, 1.0);
  EXPECT_DOUBLE_EQ(counts.missed_work_rate(), 0.25);
  EXPECT_DOUBLE_EQ(c.overall_missed_work_rate(), 0.25);
}

TEST(Collector, GlobalRecords) {
  Collector c;
  core::GlobalTaskRecord rec;
  rec.metrics_class = metrics::global_class(4);
  rec.arrival = 10.0;
  rec.missed = true;
  rec.aborted = true;
  rec.total_work = 4.5;
  c.record_global(rec);
  const auto counts = c.counts(metrics::global_class(4));
  EXPECT_EQ(counts.finished, 1u);
  EXPECT_EQ(counts.missed, 1u);
  EXPECT_EQ(counts.aborted, 1u);
  EXPECT_DOUBLE_EQ(counts.work_missed, 4.5);
}

TEST(Collector, ClassesSortedAndTotals) {
  Collector c;
  c.record(metrics::global_class(4), 0.0, true, false, 4.0);
  c.record(metrics::kLocalClass, 0.0, false, false, 1.0);
  c.record(metrics::kSubtaskClass, 0.0, false, false, 1.0);
  const auto classes = c.classes();
  ASSERT_EQ(classes.size(), 3u);
  EXPECT_EQ(classes[0], metrics::kLocalClass);
  EXPECT_EQ(classes[1], metrics::kSubtaskClass);
  EXPECT_EQ(classes[2], metrics::global_class(4));
  EXPECT_EQ(c.total_finished(), 3u);
  EXPECT_EQ(c.total_missed(), 1u);
}

TEST(Collector, TimingsTrackResponseAndTardiness) {
  Collector c;
  c.record_simple(terminal_local(0.0, 5.0, 10.0));   // response 5, tardy 0
  c.record_simple(terminal_local(0.0, 12.0, 10.0));  // response 12, tardy 2
  const auto t = c.timings(metrics::kLocalClass);
  EXPECT_EQ(t.response.count(), 2u);
  EXPECT_DOUBLE_EQ(t.response.mean(), 8.5);
  EXPECT_DOUBLE_EQ(t.response.max(), 12.0);
  EXPECT_EQ(t.tardiness.count(), 2u);
  EXPECT_DOUBLE_EQ(t.tardiness.mean(), 1.0);
}

TEST(Collector, AbortedTasksHaveNoResponseSample) {
  Collector c;
  c.record_simple(terminal_local(0.0, 3.0, 2.0, /*aborted=*/true));
  const auto t = c.timings(metrics::kLocalClass);
  EXPECT_EQ(t.response.count(), 0u);
  EXPECT_EQ(t.tardiness.count(), 1u);
  EXPECT_DOUBLE_EQ(t.tardiness.mean(), 1.0);  // aborted 1 unit past deadline
}

TEST(Collector, TimingsRespectWarmup) {
  Collector c;
  c.set_warmup(100.0);
  c.record_simple(terminal_local(10.0, 20.0, 30.0));
  EXPECT_EQ(c.timings(metrics::kLocalClass).response.count(), 0u);
}

TEST(Collector, TimingsUnknownClassEmpty) {
  Collector c;
  EXPECT_EQ(c.timings(5).response.count(), 0u);
}

TEST(Collector, GlobalRecordTimings) {
  Collector c;
  core::GlobalTaskRecord rec;
  rec.metrics_class = metrics::global_class(4);
  rec.arrival = 10.0;
  rec.real_deadline = 20.0;
  rec.finished_at = 23.0;
  rec.missed = true;
  c.record_global(rec);
  const auto t = c.timings(metrics::global_class(4));
  EXPECT_DOUBLE_EQ(t.response.mean(), 13.0);
  EXPECT_DOUBLE_EQ(t.tardiness.mean(), 3.0);
}

TEST(Collector, TardinessQuantilesFromDistributions) {
  Collector c;
  c.enable_distributions();
  // 90 on-time tasks (tardiness 0), 10 late by 5.0.
  for (int i = 0; i < 90; ++i) c.record_simple(terminal_local(0.0, 5.0, 10.0));
  for (int i = 0; i < 10; ++i) c.record_simple(terminal_local(0.0, 15.0, 10.0));
  const metrics::DistributionSet* d =
      c.class_distributions(metrics::kLocalClass);
  ASSERT_NE(d, nullptr);
  const metrics::Quantiles q = metrics::summarize(d->tardiness);
  EXPECT_EQ(q.count, 100u);
  EXPECT_NEAR(q.p50, 0.0, 0.2);
  EXPECT_NEAR(q.p99, 5.0, 0.5);
  EXPECT_GE(q.p90, q.p50);
  EXPECT_GE(q.p99, q.p90);
}

TEST(Collector, UnknownClassIsEmpty) {
  Collector c;
  const auto counts = c.counts(12345);
  EXPECT_EQ(counts.finished, 0u);
  EXPECT_DOUBLE_EQ(counts.miss_rate(), 0.0);
  EXPECT_DOUBLE_EQ(counts.missed_work_rate(), 0.0);
}

}  // namespace
