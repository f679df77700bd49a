// Tests for the trace subsystem and the whole-run determinism fingerprint.
#include "src/metrics/trace.hpp"

#include <gtest/gtest.h>

#include "src/exp/runner.hpp"
#include "src/sched/node.hpp"
#include "src/sim/engine.hpp"

namespace {

using namespace sda;
using metrics::TraceEvent;
using metrics::Tracer;
using metrics::TraceRecord;

TEST(Tracer, RecordsInOrder) {
  Tracer t;
  t.add(TraceRecord{1.0, TraceEvent::kSubmitted, 7, 0, 2, 5.0});
  t.add(TraceRecord{2.0, TraceEvent::kStarted, 7, 0, 2, 5.0});
  t.add(TraceRecord{3.0, TraceEvent::kCompleted, 7, 0, 2, 5.0});
  ASSERT_EQ(t.records().size(), 3u);
  EXPECT_EQ(t.total(), 3u);
  EXPECT_EQ(t.records()[1].event, TraceEvent::kStarted);
}

TEST(Tracer, RingBufferEvictsOldButKeepsFingerprint) {
  Tracer bounded(2);
  Tracer unbounded;
  for (int i = 0; i < 10; ++i) {
    const TraceRecord rec{static_cast<double>(i), TraceEvent::kSubmitted,
                          static_cast<std::uint64_t>(i + 1), 0, 0, 1.0};
    bounded.add(rec);
    unbounded.add(rec);
  }
  EXPECT_EQ(bounded.records().size(), 2u);
  EXPECT_EQ(bounded.total(), 10u);
  EXPECT_DOUBLE_EQ(bounded.records().front().time, 8.0);
  // Eviction never changes the fingerprint.
  EXPECT_EQ(bounded.fingerprint(), unbounded.fingerprint());
}

TEST(Tracer, FingerprintSensitiveToContent) {
  Tracer a, b;
  a.add(TraceRecord{1.0, TraceEvent::kStarted, 7, 0, 2, 5.0});
  b.add(TraceRecord{1.0, TraceEvent::kStarted, 8, 0, 2, 5.0});  // task differs
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(Tracer, ClearResets) {
  Tracer t;
  const auto empty_fp = t.fingerprint();
  t.add(TraceRecord{});
  t.clear();
  EXPECT_EQ(t.records().size(), 0u);
  EXPECT_EQ(t.total(), 0u);
  EXPECT_EQ(t.fingerprint(), empty_fp);
}

TEST(Tracer, RenderMentionsEventsAndIds) {
  Tracer t;
  t.add(TraceRecord{1.5, TraceEvent::kAborted, 42, 9, 3, 5.0});
  const std::string out = t.render();
  EXPECT_NE(out.find("abort"), std::string::npos);
  EXPECT_NE(out.find("task=42"), std::string::npos);
  EXPECT_NE(out.find("run=9"), std::string::npos);
  EXPECT_NE(out.find("node=3"), std::string::npos);
}

TEST(Tracer, EventNames) {
  EXPECT_STREQ(to_string(TraceEvent::kSubmitted), "submit");
  EXPECT_STREQ(to_string(TraceEvent::kGlobalAborted), "global-abort");
}

TEST(NodeObserver, LifecycleSequence) {
  sim::Engine engine;
  sched::Node node(engine, {});
  std::vector<sched::Node::Event> events;
  node.set_observer([&](sched::Node::Event e, const task::SimpleTask&) {
    events.push_back(e);
  });
  node.submit(task::make_local_task(1, 0, 0.0, 1.0, 5.0));
  engine.run();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], sched::Node::Event::kSubmitted);
  EXPECT_EQ(events[1], sched::Node::Event::kStarted);
  EXPECT_EQ(events[2], sched::Node::Event::kCompleted);
}

TEST(NodeObserver, AbortEventOnExternalAbort) {
  sim::Engine engine;
  sched::Node node(engine, {});
  std::vector<sched::Node::Event> events;
  node.set_observer([&](sched::Node::Event e, const task::SimpleTask&) {
    events.push_back(e);
  });
  auto t = task::make_local_task(1, 0, 0.0, 10.0, 5.0);
  node.submit(t);
  engine.at(1.0, [&] { node.abort(*t); });
  engine.run();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events.back(), sched::Node::Event::kAborted);
}

TEST(RunDeterminism, SameSeedSameFingerprint) {
  exp::ExperimentConfig c = exp::baseline_config();
  c.sim_time = 3000.0;
  c.psp = "div-1";
  Tracer a(64), b(64);
  exp::run_once(c, 42, &a);
  exp::run_once(c, 42, &b);
  EXPECT_GT(a.total(), 10000u);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.total(), b.total());
}

TEST(RunDeterminism, DifferentSeedDifferentFingerprint) {
  exp::ExperimentConfig c = exp::baseline_config();
  c.sim_time = 1000.0;
  Tracer a(64), b(64);
  exp::run_once(c, 1, &a);
  exp::run_once(c, 2, &b);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(RunDeterminism, StrategyChangesTrace) {
  exp::ExperimentConfig c = exp::baseline_config();
  c.sim_time = 1000.0;
  Tracer a(64), b(64);
  exp::run_once(c, 1, &a);
  c.psp = "gf";
  exp::run_once(c, 1, &b);
  EXPECT_NE(a.fingerprint(), b.fingerprint());  // deadlines differ
}

}  // namespace
