// util::ThreadPool (fork-join replication executor) and the determinism
// contract of the parallel run_experiment/sweep paths: any pool size must
// produce bit-identical results to a strictly sequential run.
#include "src/util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/exp/config.hpp"
#include "src/exp/runner.hpp"
#include "src/exp/sweep.hpp"

namespace sda {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ZeroItemsIsANoOp) {
  util::ThreadPool pool(3);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "body must not run"; });
}

TEST(ThreadPool, SingleThreadRunsInlineInOrder) {
  // threads <= 1 means strictly sequential on the calling thread — the
  // SDA_THREADS=1 escape hatch must not even context-switch.
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for(64, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 64u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ZeroThreadRequestClampsToOne) {
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.threads(), 1u);
  int runs = 0;
  pool.parallel_for(5, [&](std::size_t) { ++runs; });
  EXPECT_EQ(runs, 5);
}

TEST(ThreadPool, PropagatesFirstException) {
  util::ThreadPool pool(4);
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(100, [&](std::size_t i) {
      ran.fetch_add(1);
      if (i == 37) throw std::runtime_error("item 37 failed");
    });
    FAIL() << "expected parallel_for to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "item 37 failed");
  }
  // All items still ran (no early abandonment leaving results half-built).
  EXPECT_EQ(ran.load(), 100);
  // The pool is reusable after a failed batch.
  std::atomic<int> again{0};
  pool.parallel_for(10, [&](std::size_t) { again.fetch_add(1); });
  EXPECT_EQ(again.load(), 10);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  util::ThreadPool pool(3);
  std::atomic<int> inner_total{0};
  pool.parallel_for(6, [&](std::size_t) {
    // A body that itself calls parallel_for must not deadlock on the
    // caller-serialization mutex; it degrades to an inline loop.
    pool.parallel_for(4, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 24);
}

TEST(ThreadPool, ConcurrentIndicesAreDisjoint) {
  // No index is ever handed to two participants: track in-flight indices.
  util::ThreadPool pool(4);
  std::mutex m;
  std::set<std::size_t> in_flight;
  bool overlap = false;
  pool.parallel_for(500, [&](std::size_t i) {
    {
      std::lock_guard<std::mutex> lk(m);
      overlap = overlap || !in_flight.insert(i).second;
    }
    std::lock_guard<std::mutex> lk(m);
    in_flight.erase(i);
  });
  EXPECT_FALSE(overlap);
}

TEST(ThreadPool, ConcurrentTopLevelCallersAreSerialized) {
  // Two threads share one pool: every index of both calls runs exactly
  // once, and the calls never run more than threads() bodies at once.
  util::ThreadPool pool(3);
  constexpr std::size_t kN = 200;
  std::vector<std::atomic<int>> hits_a(kN);
  std::vector<std::atomic<int>> hits_b(kN);
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  const auto call = [&](std::vector<std::atomic<int>>& hits) {
    pool.parallel_for(kN, [&](std::size_t i) {
      const int now = running.fetch_add(1) + 1;
      int seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      hits[i].fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      running.fetch_sub(1);
    });
  };
  std::thread a([&] { call(hits_a); });
  std::thread b([&] { call(hits_b); });
  a.join();
  b.join();
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits_a[i].load(), 1) << "first call, index " << i;
    EXPECT_EQ(hits_b[i].load(), 1) << "second call, index " << i;
  }
  EXPECT_LE(peak.load(), 3);
}

TEST(ThreadPool, ConfiguredThreadsReadsSdaThreads) {
  ::setenv("SDA_THREADS", "7", 1);
  EXPECT_EQ(util::ThreadPool::configured_threads(), 7u);
  ::setenv("SDA_THREADS", "1", 1);
  EXPECT_EQ(util::ThreadPool::configured_threads(), 1u);
  ::setenv("SDA_THREADS", "100000", 1);  // clamped to a sane ceiling
  EXPECT_EQ(util::ThreadPool::configured_threads(), 512u);
  ::unsetenv("SDA_THREADS");
  EXPECT_GE(util::ThreadPool::configured_threads(), 1u);
}

// --- determinism of the parallel experiment paths -------------------------

exp::ExperimentConfig quick_config() {
  exp::ExperimentConfig c = exp::baseline_config();
  c.sim_time = 400.0;  // short but long enough for real contention
  c.replications = 5;
  c.psp = "div-1";
  return c;
}

TEST(ThreadPoolDeterminism, FingerprintsIdenticalAcrossPoolSizes) {
  const exp::ExperimentConfig c = quick_config();

  util::ThreadPool seq(1);
  std::vector<std::uint64_t> fp_seq;
  const metrics::Report r_seq = exp::run_experiment(c, seq, &fp_seq);
  ASSERT_EQ(fp_seq.size(), 5u);

  for (unsigned threads : {2u, 4u, 7u}) {
    util::ThreadPool pool(threads);
    std::vector<std::uint64_t> fp;
    const metrics::Report r = exp::run_experiment(c, pool, &fp);
    EXPECT_EQ(fp, fp_seq) << "tracer fingerprints diverged at " << threads
                          << " threads";
    // The folded report must match too (same replications, same order).
    ASSERT_EQ(r.classes(), r_seq.classes());
    for (int cls : r_seq.classes()) {
      EXPECT_EQ(r.summary(cls).miss_rate.mean, r_seq.summary(cls).miss_rate.mean);
      EXPECT_EQ(r.summary(cls).finished_total, r_seq.summary(cls).finished_total);
    }
    EXPECT_EQ(r.overall_missed_work().mean, r_seq.overall_missed_work().mean);
  }
}

TEST(ThreadPoolDeterminism, ReplicationSeedsMatchSequentialSchedule) {
  // The pool path derives seeds through replication_seed; re-running any
  // single replication with that seed must reproduce its fingerprint.
  const exp::ExperimentConfig c = quick_config();
  util::ThreadPool pool(4);
  std::vector<std::uint64_t> fp;
  (void)exp::run_experiment(c, pool, &fp);
  ASSERT_EQ(fp.size(), 5u);
  for (int rep = 0; rep < 5; ++rep) {
    metrics::Tracer tracer(1);
    (void)exp::run_once(c, exp::replication_seed(c.seed, rep), &tracer);
    EXPECT_EQ(tracer.fingerprint(), fp[static_cast<std::size_t>(rep)])
        << "replication " << rep;
  }
}

TEST(ThreadPoolDeterminism, SweepMatchesSequentialPointByPoint) {
  exp::ExperimentConfig base = quick_config();
  base.replications = 2;
  const std::vector<double> xs = exp::linspace(0.2, 0.6, 3);
  const exp::ApplyFn apply = [](exp::ExperimentConfig& c, double x) {
    c.load = x;
  };

  util::ThreadPool seq(1);
  util::ThreadPool par(5);
  const auto a = exp::sweep(base, xs, apply, seq);
  const auto b = exp::sweep(base, xs, apply, par);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x);
    ASSERT_EQ(a[i].report.classes(), b[i].report.classes());
    for (int cls : a[i].report.classes()) {
      EXPECT_EQ(a[i].report.summary(cls).miss_rate.mean,
                b[i].report.summary(cls).miss_rate.mean);
      EXPECT_EQ(a[i].report.summary(cls).missed_work_rate.mean,
                b[i].report.summary(cls).missed_work_rate.mean);
      EXPECT_EQ(a[i].report.summary(cls).finished_total,
                b[i].report.summary(cls).finished_total);
    }
  }
}

}  // namespace
}  // namespace sda
