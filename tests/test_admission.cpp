// Feasibility tests, the overload state machine, the bounded retry
// queue, and the SDA plan cache (core/admission, core/plan_cache).
#include "src/core/admission.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "src/task/notation.hpp"
#include "src/task/tree.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace sda;
using core::AdmissionConfig;
using core::AdmissionController;
using core::AdmissionDecision;
using core::AdmissionOutcome;
using core::LedgerJob;
using core::OverloadState;

LedgerJob job(double release, double deadline, double demand) {
  LedgerJob j;
  j.ticket = 0;
  j.release = release;
  j.deadline = deadline;
  j.demand = demand;
  return j;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Differential oracle for core::completion_time_test: the
/// processor-demand criterion.  For every interval [r, d] spanned by a
/// (clamped) release and a deadline, the demand of the jobs fully
/// contained in it must fit in d - r.  Exact for independent
/// preemptive-EDF jobs whose windows are non-empty after clamping to
/// @p now (the controller retires jobs whose deadline has passed);
/// O(n^3), so it lives here rather than in the product.
bool scheduling_point_test(const std::vector<LedgerJob>& jobs, double now) {
  constexpr double kEps = 1e-9;  // same tolerance as core/admission.cpp
  const std::size_t n = jobs.size();
  std::vector<double> release(n);
  for (std::size_t i = 0; i < n; ++i) {
    release[i] = std::max(jobs[i].release, now);
  }
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      const double lo = release[a];
      const double hi = jobs[b].deadline;
      if (hi <= lo) continue;
      double demand = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        if (release[i] >= lo - kEps && jobs[i].deadline <= hi + kEps) {
          demand += jobs[i].demand;
        }
      }
      if (demand > hi - lo + kEps) return false;
    }
  }
  return true;
}

// --- the per-node feasibility battery ------------------------------------

TEST(FeasibilityTests, UtilizationBoundCountsDensity) {
  std::vector<LedgerJob> jobs = {job(0, 10, 5), job(0, 10, 4)};  // 0.9
  EXPECT_TRUE(core::utilization_test(jobs, 0.0, 1.0));
  jobs.push_back(job(0, 10, 2));  // 1.1
  EXPECT_FALSE(core::utilization_test(jobs, 0.0, 1.0));
  EXPECT_TRUE(core::utilization_test({}, 0.0, 1.0));
}

TEST(FeasibilityTests, UtilizationClampsReleaseToNow) {
  // Window [0, 10] looks wide, but at now = 8 only 2 units remain for
  // 4 units of demand.
  std::vector<LedgerJob> jobs = {job(0, 10, 4)};
  EXPECT_TRUE(core::utilization_test(jobs, 0.0, 1.0));
  EXPECT_FALSE(core::utilization_test(jobs, 8.0, 1.0));
}

TEST(FeasibilityTests, CompletionTimeIsExactWhereDensityIsConservative) {
  // Density 0.9 + 0.5 = 1.4 fails the bound, yet EDF trivially meets
  // both deadlines: the short job runs 0..1, the long one 1..10.
  std::vector<LedgerJob> jobs = {job(0, 10, 9), job(0, 2, 1)};
  EXPECT_FALSE(core::utilization_test(jobs, 0.0, 1.0));
  EXPECT_TRUE(core::completion_time_test(jobs, 0.0));
  EXPECT_TRUE(scheduling_point_test(jobs, 0.0));
}

TEST(FeasibilityTests, CompletionTimeCatchesOverload) {
  std::vector<LedgerJob> jobs = {job(0, 10, 9), job(0, 2, 2.5)};
  EXPECT_FALSE(core::completion_time_test(jobs, 0.0));
  EXPECT_FALSE(scheduling_point_test(jobs, 0.0));
}

TEST(FeasibilityTests, CompletionTimeHandlesFutureReleasesAndPreemption) {
  // A runs 0..3, B preempts (earlier deadline) 3..5, A resumes 5..8.
  std::vector<LedgerJob> ok = {job(0, 10, 6), job(3, 5, 2)};
  EXPECT_TRUE(core::completion_time_test(ok, 0.0));
  EXPECT_TRUE(scheduling_point_test(ok, 0.0));

  // Two staged jobs fill [2, 4]; a third cannot also fit there.
  std::vector<LedgerJob> staged = {job(0, 4, 2), job(2, 4, 2)};
  EXPECT_TRUE(core::completion_time_test(staged, 0.0));
  staged.push_back(job(2, 4, 2));
  EXPECT_FALSE(core::completion_time_test(staged, 0.0));
  EXPECT_FALSE(scheduling_point_test(staged, 0.0));
}

TEST(FeasibilityTests, ExactTestsAgreeOnABattery) {
  // The completion-time walk and the processor-demand criterion are both
  // exact for independent preemptive-EDF jobs: same verdict everywhere.
  const std::vector<std::vector<LedgerJob>> batteries = {
      {job(0, 4, 2), job(1, 6, 2), job(2, 9, 3)},
      {job(0, 4, 2), job(1, 6, 3), job(2, 9, 3)},
      {job(0, 1, 1), job(0, 2, 1), job(0, 3, 1), job(0, 4, 1)},
      {job(0, 1, 1), job(0, 2, 1), job(0, 3, 1), job(0, 3.5, 1)},
      {job(5, 9, 4), job(0, 5, 5)},
      {job(5, 8.5, 4), job(0, 5, 5)},
  };
  for (std::size_t i = 0; i < batteries.size(); ++i) {
    EXPECT_EQ(core::completion_time_test(batteries[i], 0.0),
              scheduling_point_test(batteries[i], 0.0))
        << "battery " << i;
  }

  // Seeded generator: job sets whose releases and deadlines cluster
  // around a few shared instants, on a dyadic grid so that every sum is
  // exact in double and ties, exact fits, and releases clamped to `now`
  // all occur often.  Windows stay non-empty after clamping, as in a
  // live ledger.
  constexpr double kGrid = 0.25;
  util::Rng rng(0xfea51b1eULL);
  int feasible = 0;
  int infeasible = 0;
  for (int set = 0; set < 4000; ++set) {
    const double now = kGrid * static_cast<double>(rng.uniform_int(0, 4));
    const int clusters = static_cast<int>(rng.uniform_int(1, 3));
    std::vector<double> centers;
    for (int c = 0; c < clusters; ++c) {
      centers.push_back(kGrid * static_cast<double>(rng.uniform_int(0, 40)));
    }
    std::vector<LedgerJob> jobs;
    const int n = static_cast<int>(rng.uniform_int(1, 9));
    for (int i = 0; i < n; ++i) {
      const double center = centers[static_cast<std::size_t>(
          rng.uniform_int(0, clusters - 1))];
      const double release =
          center + kGrid * static_cast<double>(rng.uniform_int(0, 2));
      const double open = std::max(release, now);
      const double deadline =
          open + kGrid * static_cast<double>(rng.uniform_int(1, 24));
      const double demand = kGrid * static_cast<double>(rng.uniform_int(0, 12));
      jobs.push_back(job(release, deadline, demand));
    }
    const bool walk = core::completion_time_test(jobs, now);
    ASSERT_EQ(walk, scheduling_point_test(jobs, now))
        << "set " << set << " (n=" << n << ", now=" << now << ")";
    if (walk) {
      ++feasible;
    } else {
      ++infeasible;
    }
  }
  // The generator must exercise both verdicts in earnest.
  EXPECT_GT(feasible, 800);
  EXPECT_GT(infeasible, 800);
}

// --- the admission controller --------------------------------------------

AdmissionConfig make_config(int nodes = 2) {
  AdmissionConfig a;
  a.node_count = nodes;
  a.queue_capacity = 1;
  return a;
}

task::TreePtr tree_of(const std::string& notation) {
  return task::parse_notation(notation);
}

TEST(AdmissionController, AdmitsUntilCapacityThenRejects) {
  AdmissionController c(make_config());
  const auto t1 = tree_of("a@0:4/4");
  const AdmissionOutcome first = c.decide(*t1, 0.0, 5.0, 1);
  EXPECT_EQ(first.decision, AdmissionDecision::kAdmit);
  ASSERT_EQ(first.plan.size(), 1u);
  EXPECT_EQ(bits(first.plan[0].virtual_deadline), bits(5.0));

  // A second identical task cannot also fit 4 units before t=5.
  const AdmissionOutcome second = c.decide(*t1, 0.0, 5.0, 2);
  EXPECT_EQ(second.decision, AdmissionDecision::kReject);
  EXPECT_EQ(c.stats().admitted, 1u);
  EXPECT_EQ(c.stats().rejected, 1u);
  EXPECT_EQ(c.ledger_size(), 1u);

  // An independent node is unaffected.
  const auto t2 = tree_of("b@1:4/4");
  EXPECT_EQ(c.decide(*t2, 0.0, 5.0, 3).decision, AdmissionDecision::kAdmit);
}

TEST(AdmissionController, ShedsNegativeSlackOutright) {
  AdmissionController c(make_config());
  const auto t = tree_of("a@0:4/4");
  const AdmissionOutcome out = c.decide(*t, 0.0, 3.0, 1);
  EXPECT_EQ(out.decision, AdmissionDecision::kShed);
  EXPECT_STREQ(out.reason, "negative-slack");
  EXPECT_EQ(c.ledger_size(), 0u);
}

TEST(AdmissionController, RetirementFreesCapacity) {
  AdmissionController c(make_config());
  const auto t = tree_of("a@0:4/4");
  EXPECT_EQ(c.decide(*t, 0.0, 5.0, 1).decision, AdmissionDecision::kAdmit);
  EXPECT_EQ(c.decide(*t, 0.0, 5.0, 2).decision, AdmissionDecision::kReject);
  c.on_finished(1);  // the run completed early
  EXPECT_EQ(c.decide(*t, 0.0, 5.0, 3).decision, AdmissionDecision::kAdmit);
}

TEST(AdmissionController, DeadlineExpiryFreesCapacity) {
  AdmissionController c(make_config());
  const auto t = tree_of("a@0:4/4");
  EXPECT_EQ(c.decide(*t, 0.0, 5.0, 1).decision, AdmissionDecision::kAdmit);
  EXPECT_EQ(c.decide(*t, 0.0, 5.0, 2).decision, AdmissionDecision::kReject);
  // Past t=5 the first reservation is dead; a fresh window admits.
  EXPECT_EQ(c.decide(*t, 6.0, 11.0, 3).decision, AdmissionDecision::kAdmit);
}

TEST(AdmissionController, SerialPlansPartitionTheWindow) {
  // EQS splits the slack across stages, so both ledger jobs carry
  // non-degenerate windows and the serial tree admits.
  AdmissionConfig cfg = make_config();
  cfg.ssp = "eqs";
  AdmissionController c(cfg);
  const auto t = tree_of("[a@0:2/2 b@1:3/3]");
  const AdmissionOutcome out = c.decide(*t, 0.0, 10.0, 1);
  EXPECT_EQ(out.decision, AdmissionDecision::kAdmit);
  ASSERT_EQ(out.plan.size(), 2u);
  EXPECT_GT(out.plan[1].planned_dispatch, 0.0);
  EXPECT_LT(out.plan[0].virtual_deadline, 10.0);
  EXPECT_EQ(bits(out.plan[1].virtual_deadline), bits(10.0));
  EXPECT_EQ(c.ledger_size(), 2u);
}

/// Drives pressure with alpha = 1 (no smoothing) so the state at every
/// decision is a pure function of the ledger left by the previous ones.
AdmissionConfig hysteresis_config() {
  AdmissionConfig a = make_config(2);
  a.pressure_alpha = 1.0;
  a.enter_degraded = 0.70;
  a.exit_degraded = 0.55;
  a.enter_shedding = 0.90;
  a.exit_shedding = 0.70;
  return a;
}

TEST(AdmissionController, HysteresisWalksNormalDegradedSheddingAndBack) {
  AdmissionController c(hysteresis_config());
  const auto t = tree_of("w@0:2/2");  // density 0.2 in a 10-wide window
  // Five admissions load node 0 to density 1.0 (10 units due by t=10).
  for (std::uint64_t i = 1; i <= 5; ++i) {
    EXPECT_EQ(c.decide(*t, 0.0, 10.0, i).decision, AdmissionDecision::kAdmit)
        << "admission " << i;
  }
  // Decision 5 saw the 0.8-density ledger: already degraded.
  EXPECT_EQ(c.state(), OverloadState::kDegraded);
  EXPECT_EQ(c.stats().to_degraded, 1u);

  // The next decision sees density 1.0: shedding, and the candidate is
  // shed (no headroom left).
  const AdmissionOutcome shed = c.decide(*t, 0.0, 10.0, 6);
  EXPECT_EQ(c.state(), OverloadState::kShedding);
  EXPECT_EQ(shed.decision, AdmissionDecision::kShed);
  EXPECT_EQ(c.stats().to_shedding, 1u);

  // After the reservations expire the pressure collapses and the machine
  // recovers all the way to normal.
  EXPECT_EQ(c.decide(*t, 11.0, 21.0, 7).decision, AdmissionDecision::kAdmit);
  EXPECT_EQ(c.state(), OverloadState::kNormal);
  EXPECT_EQ(c.stats().to_normal, 1u);
}

TEST(AdmissionController, DegradedStateStretchesInfeasibleDeadlines) {
  AdmissionConfig cfg = hysteresis_config();
  cfg.degrade_stretch = 1.5;
  AdmissionController c(cfg);
  // Load node 1 to density 0.8 so the machine degrades without touching
  // node 0, where the candidate runs.
  const auto w = tree_of("w@1:2/2");
  for (std::uint64_t i = 1; i <= 4; ++i) {
    ASSERT_EQ(c.decide(*w, 0.0, 10.0, i).decision, AdmissionDecision::kAdmit);
  }
  const auto existing = tree_of("x@0:2/2");
  ASSERT_EQ(c.decide(*existing, 0.0, 10.0, 5).decision,
            AdmissionDecision::kAdmit);
  EXPECT_EQ(c.state(), OverloadState::kDegraded);

  // 6 units in a 7-wide window next to the existing 0.2 density fails
  // the utilization bound at the submitted deadline, but fits once the
  // window is stretched to 10.5.
  const auto cand = tree_of("a@0:6/6");
  const AdmissionOutcome out = c.decide(*cand, 0.0, 7.0, 6);
  EXPECT_EQ(out.decision, AdmissionDecision::kAdmitDegraded);
  EXPECT_STREQ(out.reason, "stretched-deadline");
  EXPECT_EQ(bits(out.deadline), bits(10.5));
  EXPECT_EQ(c.stats().admitted_degraded, 1u);
}

TEST(AdmissionController, BoundedQueueBackpressureAndPump) {
  AdmissionController c(make_config());  // queue_capacity = 1
  EXPECT_EQ(c.submit(tree_of("a@0:4/4"), 0.0, 5.0, 1).queued, false);

  // Second submission is infeasible now -> parked, no decision yet.
  const auto parked = c.submit(tree_of("a@0:4/4"), 0.0, 5.0, 2);
  EXPECT_TRUE(parked.queued);
  EXPECT_EQ(c.queue_depth(), 1u);
  EXPECT_EQ(c.stats().queued, 1u);

  // Queue full -> immediate backpressure decision.
  const auto rejected = c.submit(tree_of("a@0:4/4"), 0.0, 5.0, 3);
  EXPECT_FALSE(rejected.queued);
  EXPECT_EQ(rejected.outcome.decision, AdmissionDecision::kBackpressure);
  EXPECT_EQ(c.stats().backpressure, 1u);
  EXPECT_EQ(c.stats().queue_high_water, 1u);

  // Retiring the first run frees capacity; pump resolves the parked one.
  c.on_finished(1);
  const auto resolved = c.pump(0.5);
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].first, 2u);
  EXPECT_EQ(resolved[0].second.decision, AdmissionDecision::kAdmit);
  EXPECT_EQ(c.queue_depth(), 0u);
}

TEST(AdmissionController, PumpShedsExpiredAndFlushResolvesEverything) {
  AdmissionController c(make_config());
  ASSERT_FALSE(c.submit(tree_of("a@0:4/4"), 0.0, 5.0, 1).queued);
  ASSERT_TRUE(c.submit(tree_of("a@0:4/4"), 0.0, 5.0, 2).queued);

  // By t=2 the parked task's 4 units no longer fit before t=5.
  const auto resolved = c.pump(2.0);
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].second.decision, AdmissionDecision::kShed);
  EXPECT_STREQ(resolved[0].second.reason, "queued-slack-expired");

  ASSERT_TRUE(c.submit(tree_of("a@0:4/4"), 2.0, 7.0, 3).queued);
  const auto flushed = c.flush(2.0);
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].first, 3u);
  EXPECT_EQ(flushed[0].second.decision, AdmissionDecision::kShed);
  EXPECT_STREQ(flushed[0].second.reason, "flushed");
  EXPECT_EQ(c.queue_depth(), 0u);
}

// --- the plan cache -------------------------------------------------------

TEST(PlanCache, KeySeparatesShapesNodesAndDemands) {
  const auto a = tree_of("[a@0:2/2 || b@1:3/3]");
  const auto b = tree_of("[a@0:2/2 b@1:3/3]");    // serial, same leaves
  const auto c = tree_of("[a@2:2/2 || b@1:3/3]"); // different node
  const auto d = tree_of("[a@0:2/2.5 || b@1:3/3]");  // different pex
  EXPECT_NE(core::plan_cache_key(*a, 5.0), core::plan_cache_key(*b, 5.0));
  EXPECT_NE(core::plan_cache_key(*a, 5.0), core::plan_cache_key(*c, 5.0));
  EXPECT_NE(core::plan_cache_key(*a, 5.0), core::plan_cache_key(*d, 5.0));
  EXPECT_NE(core::plan_cache_key(*a, 5.0), core::plan_cache_key(*a, 5.5));
  EXPECT_EQ(core::plan_cache_key(*a, 5.0),
            core::plan_cache_key(*task::clone(*a), 5.0));
}

TEST(PlanCache, CachedPlansAreBitIdenticalToFresh) {
  // Same submission sequence through a caching and a non-caching
  // controller: every outcome must match bit for bit (the fingerprint
  // guarantee the serve path relies on).
  AdmissionConfig with = make_config();
  with.ssp = "eqs";  // partitioning SSP: the serial stages admit
  AdmissionConfig without = with;
  without.plan_cache = false;
  AdmissionController cached(with);
  AdmissionController fresh(without);

  const auto t = tree_of("[a@0:1.25/1.25 || [b@1:0.7/0.7 c@1:0.9/0.9]]");
  // Integer arrivals keep now + 6.5 - now bit-exact, so every lookup
  // reuses the one cached (shape, relative-deadline) entry.
  const double times[] = {0.0, 3.0, 9.0, 12.0};
  std::uint64_t ticket = 1;
  for (const double now : times) {
    const AdmissionOutcome lhs = cached.decide(*t, now, now + 6.5, ticket);
    const AdmissionOutcome rhs = fresh.decide(*t, now, now + 6.5, ticket);
    ++ticket;
    EXPECT_EQ(lhs.decision, rhs.decision);
    ASSERT_EQ(lhs.plan.size(), rhs.plan.size());
    for (std::size_t i = 0; i < lhs.plan.size(); ++i) {
      EXPECT_EQ(bits(lhs.plan[i].planned_dispatch),
                bits(rhs.plan[i].planned_dispatch));
      EXPECT_EQ(bits(lhs.plan[i].virtual_deadline),
                bits(rhs.plan[i].virtual_deadline));
    }
  }
  // Identical (shape, relative deadline) pairs hit after the first miss.
  EXPECT_EQ(cached.cache_stats().misses, 1u);
  EXPECT_EQ(cached.cache_stats().hits, 3u);
  EXPECT_EQ(fresh.cache_stats().hits, 0u);
  EXPECT_EQ(fresh.cache_stats().misses, 0u);
}

TEST(PlanCache, LruEvictionIsCountedAndBounded) {
  AdmissionConfig cfg = make_config();
  cfg.plan_cache_capacity = 2;
  AdmissionController c(cfg);
  const auto t = tree_of("a@0:0.5/0.5");
  std::uint64_t ticket = 1;
  // Three distinct relative deadlines cycle through a 2-entry cache.
  for (int round = 0; round < 2; ++round) {
    for (const double rel : {4.0, 5.0, 6.0}) {
      (void)c.decide(*t, 0.0, rel, ticket++);
    }
  }
  const core::PlanCache::Stats stats = c.cache_stats();
  EXPECT_EQ(stats.hits, 0u);  // LRU thrashes on a cyclic scan
  EXPECT_EQ(stats.misses, 6u);
  EXPECT_GE(stats.evictions, 4u);
}

}  // namespace
