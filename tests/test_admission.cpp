// Feasibility tests, the overload state machine, the bounded retry
// queue, and the state fingerprint (core/admission).
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

/// Exact feasibility oracle for core::utilization_test: the
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

// --- the per-node feasibility test ---------------------------------------

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

TEST(FeasibilityTests, DensityIsSufficientNotNecessary) {
  // Each set below is EDF-feasible, yet its density exceeds 1.
  const std::vector<std::vector<LedgerJob>> pessimistic = {
      // 0.9 + 0.5: the short job runs 0..1, the long one 1..10.
      {job(0, 10, 9), job(0, 2, 1)},
      // 0.6 + 1.0: A runs 0..3, B preempts 3..5, A resumes 5..8.
      {job(0, 10, 6), job(3, 5, 2)},
      // 0.5 + 1.0: two staged jobs fill [0, 4] exactly.
      {job(0, 4, 2), job(2, 4, 2)},
  };
  for (std::size_t i = 0; i < pessimistic.size(); ++i) {
    EXPECT_FALSE(core::utilization_test(pessimistic[i], 0.0, 1.0)) << i;
    EXPECT_TRUE(scheduling_point_test(pessimistic[i], 0.0)) << i;
  }
  // Overloads both reject.
  const std::vector<std::vector<LedgerJob>> overloaded = {
      {job(0, 10, 9), job(0, 2, 2.5)},
      {job(0, 4, 2), job(2, 4, 2), job(2, 4, 2)},
  };
  for (std::size_t i = 0; i < overloaded.size(); ++i) {
    EXPECT_FALSE(core::utilization_test(overloaded[i], 0.0, 1.0)) << i;
    EXPECT_FALSE(scheduling_point_test(overloaded[i], 0.0)) << i;
  }
}

TEST(FeasibilityTests, DensityImpliesTheExactTestOnABattery) {
  // Whatever the density bound admits at a bound <= 1, preemptive EDF
  // schedules: utilization_test(b) => scheduling_point_test.
  constexpr double kBounds[] = {1.0, 0.85};
  const std::vector<std::vector<LedgerJob>> batteries = {
      {job(0, 4, 2), job(1, 6, 2), job(2, 9, 3)},
      {job(0, 4, 2), job(1, 6, 3), job(2, 9, 3)},
      {job(0, 1, 1), job(0, 2, 1), job(0, 3, 1), job(0, 4, 1)},
      {job(0, 1, 1), job(0, 2, 1), job(0, 3, 1), job(0, 3.5, 1)},
      {job(5, 9, 4), job(0, 5, 5)},
      {job(5, 8.5, 4), job(0, 5, 5)},
      {job(0, 4, 1), job(0, 4, 1), job(0, 2, 1)},  // density exactly 1
  };
  for (std::size_t i = 0; i < batteries.size(); ++i) {
    for (const double b : kBounds) {
      if (core::utilization_test(batteries[i], 0.0, b)) {
        EXPECT_TRUE(scheduling_point_test(batteries[i], 0.0))
            << "battery " << i << " bound " << b;
      }
    }
  }

  // Seeded generator: job sets whose releases and deadlines cluster
  // around a few shared instants, on a dyadic grid so that ties, exact
  // fits, and releases clamped to `now` all occur often.  Windows stay
  // non-empty after clamping, as in a live ledger.
  constexpr double kGrid = 0.25;
  util::Rng rng(0xfea51b1eULL);
  int feasible = 0;
  int infeasible = 0;
  int admitted[2] = {0, 0};
  int tight = 0;  // admitted at 1 but not at 1 - 1e-6: full nodes
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
    const bool exact = scheduling_point_test(jobs, now);
    if (exact) {
      ++feasible;
    } else {
      ++infeasible;
    }
    for (std::size_t k = 0; k < 2; ++k) {
      if (!core::utilization_test(jobs, now, kBounds[k])) continue;
      ++admitted[k];
      ASSERT_TRUE(exact) << "set " << set << " (n=" << n << ", now=" << now
                         << ") passes density at bound " << kBounds[k];
    }
    if (core::utilization_test(jobs, now, 1.0) &&
        !core::utilization_test(jobs, now, 1.0 - 1e-6)) {
      ++tight;
    }
  }
  // The generator must exercise both verdicts in earnest, and the
  // implication must be tested on many admitted sets, full nodes among
  // them.
  EXPECT_GT(feasible, 800);
  EXPECT_GT(infeasible, 800);
  EXPECT_GT(admitted[0], 400);
  EXPECT_GT(admitted[1], 400);
  EXPECT_GT(tight, 10);
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

// --- the state fingerprint -----------------------------------------------

TEST(AdmissionController, FingerprintSeparatesParkedTreeShapes) {
  // The fingerprint hashes each parked tree's exact structure: a parallel
  // vs. serial stage, a different node, or a different pex must move it;
  // a clone of the same tree must not.
  const auto fingerprint_parking = [](const task::TreeNode& parked) {
    AdmissionController c(make_config());
    EXPECT_FALSE(
        c.submit(tree_of("[a@0:3/3 || b@1:3/3 || c@2:3/3]"), 0.0, 3.5, 1)
            .queued);
    EXPECT_TRUE(c.submit(task::clone(parked), 0.0, 6.0, 2).queued);
    return c.fingerprint();
  };
  const auto a = tree_of("[a@0:2/2 || b@1:3/3]");
  const auto b = tree_of("[a@0:2/2 b@1:3/3]");       // serial, same leaves
  const auto c = tree_of("[a@2:2/2 || b@1:3/3]");    // different node
  const auto d = tree_of("[a@0:2/2.5 || b@1:3/3]");  // different pex
  const std::uint64_t fa = fingerprint_parking(*a);
  EXPECT_NE(fa, fingerprint_parking(*b));
  EXPECT_NE(fa, fingerprint_parking(*c));
  EXPECT_NE(fa, fingerprint_parking(*d));
  EXPECT_EQ(fa, fingerprint_parking(*task::clone(*a)));
}

// --- the controller against the exact test ------------------------------

/// A random serial-parallel tree on @p nodes nodes: one leaf, a serial or
/// parallel group of two or three, or a serial stage feeding a parallel
/// pair.  pex is on a 0.25 grid, 0.25 to 3.
task::TreePtr random_tree(util::Rng& rng, int nodes) {
  int next = 0;
  const auto leaf = [&] {
    const double pex = 0.25 * static_cast<double>(rng.uniform_int(1, 12));
    return "t" + std::to_string(next++) + "@" +
           std::to_string(rng.uniform_int(0, nodes - 1)) + ":" +
           std::to_string(pex) + "/" + std::to_string(pex);
  };
  const auto group = [&](const char* sep) {
    std::string out = "[" + leaf();
    const int extra = static_cast<int>(rng.uniform_int(1, 2));
    for (int i = 0; i < extra; ++i) out += sep + leaf();
    return out + "]";
  };
  switch (rng.uniform_int(0, 3)) {
    case 0: return tree_of(leaf());
    case 1: return tree_of(group(" "));
    case 2: return tree_of(group(" || "));
    default: {
      const std::string first = leaf();
      return tree_of("[" + first + " [" + leaf() + " || " + leaf() + "]]");
    }
  }
}

TEST(AdmissionController, EveryAdmitLeavesEdfFeasibleLedgers) {
  // Random trees through decide, submit, pump and done drive the
  // controller through all three overload states.  A mirror of every
  // node's ledger, rebuilt from the admitted plans, must pass the exact
  // processor-demand test after every admit.  Rejects the exact test
  // would have taken are density pessimism, counted but not failures.
  constexpr int kNodes = 4;
  const std::pair<const char*, const char*> strategies[] = {
      {"ud", "ud"}, {"div-1", "eqf"}, {"ud", "eqs"}};
  util::Rng rng(0x0dac1e5eedULL);
  int admits_in[3] = {0, 0, 0};
  int degraded_admits = 0;
  int checks = 0;
  int pessimism = 0;
  int rejects = 0;
  for (const auto& [psp_name, ssp_name] : strategies) {
    AdmissionConfig cfg;
    cfg.node_count = kNodes;
    cfg.psp = psp_name;
    cfg.ssp = ssp_name;
    cfg.queue_capacity = 8;
    AdmissionController c(cfg);
    const auto psp = core::make_psp_strategy(psp_name);
    const auto ssp = core::make_ssp_strategy(ssp_name);

    std::vector<std::vector<LedgerJob>> shadow(kNodes);
    std::vector<task::TreePtr> trees;  // indexed by ticket - 1
    std::vector<std::uint64_t> live;   // admitted tickets
    const auto expire = [&](double now) {
      for (auto& ledger : shadow) {
        std::erase_if(ledger,
                      [now](const LedgerJob& j) { return j.deadline <= now; });
      }
    };
    const auto on_admit = [&](std::uint64_t ticket, const AdmissionOutcome& out,
                              double now) {
      ++admits_in[static_cast<int>(out.state)];
      if (out.decision == AdmissionDecision::kAdmitDegraded) ++degraded_admits;
      const auto leaves = task::leaves(*trees[ticket - 1]);
      ASSERT_EQ(leaves.size(), out.plan.size());
      expire(now);
      for (std::size_t i = 0; i < leaves.size(); ++i) {
        LedgerJob j;
        j.ticket = ticket;
        j.leaf = static_cast<std::uint32_t>(i);
        j.release = out.plan[i].planned_dispatch;
        j.deadline = out.plan[i].virtual_deadline;
        j.demand = leaves[i]->pred_exec;
        shadow[static_cast<std::size_t>(out.plan[i].node)].push_back(j);
      }
      for (const core::PlanEntry& e : out.plan) {
        ++checks;
        ASSERT_TRUE(scheduling_point_test(
            shadow[static_cast<std::size_t>(e.node)], now))
            << psp_name << "/" << ssp_name << " ticket " << ticket
            << " leaves node " << e.node << " EDF-infeasible at " << now;
      }
      live.push_back(ticket);
    };
    const auto exact_would_admit = [&](const task::TreeNode& tree,
                                       double now, double deadline) {
      expire(now);
      std::vector<std::vector<LedgerJob>> with = shadow;
      for (const core::LeafAssignment& a :
           core::plan_assignment(tree, 0.0, deadline - now, *psp, *ssp)) {
        with[static_cast<std::size_t>(a.leaf->exec_node)].push_back(
            job(now + a.planned_dispatch, now + a.virtual_deadline,
                a.leaf->pred_exec));
      }
      return std::all_of(with.begin(), with.end(), [&](const auto& ledger) {
        return scheduling_point_test(ledger, now);
      });
    };
    const auto resolve = [&](const auto& resolved, double now) {
      for (const auto& [ticket, out] : resolved) {
        if (out.decision == AdmissionDecision::kAdmit ||
            out.decision == AdmissionDecision::kAdmitDegraded) {
          on_admit(ticket, out, now);
        }
      }
    };

    double now = 0.0;
    for (int step = 0; step < 3000; ++step) {
      now += 0.125 * static_cast<double>(rng.uniform_int(0, 3));
      const int op = static_cast<int>(rng.uniform_int(0, 9));
      if (op <= 5) {  // a new submission, decided or submitted
        const std::uint64_t ticket = trees.size() + 1;
        trees.push_back(random_tree(rng, kNodes));
        const task::TreeNode& tree = *trees.back();
        const double slack =
            0.25 * static_cast<double>(rng.uniform_int(0, 16));
        const double deadline = now + task::critical_path_pex(tree) + slack;
        if (op <= 2) {
          const AdmissionOutcome out = c.decide(tree, now, deadline, ticket);
          if (out.decision == AdmissionDecision::kAdmit ||
              out.decision == AdmissionDecision::kAdmitDegraded) {
            on_admit(ticket, out, now);
          } else if (out.decision == AdmissionDecision::kReject) {
            ++rejects;
            if (exact_would_admit(tree, now, deadline)) ++pessimism;
          }
        } else {
          const auto result =
              c.submit(task::clone(tree), now, deadline, ticket);
          if (!result.queued &&
              (result.outcome.decision == AdmissionDecision::kAdmit ||
               result.outcome.decision == AdmissionDecision::kAdmitDegraded)) {
            on_admit(ticket, result.outcome, now);
          }
        }
      } else if (op <= 7) {
        resolve(c.pump(now), now);
      } else if (!live.empty()) {  // a run finishes, whole or one leaf
        const std::size_t pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        const std::uint64_t ticket = live[pick];
        if (op == 8) {
          c.on_finished(ticket);
          for (auto& ledger : shadow) {
            std::erase_if(ledger, [ticket](const LedgerJob& j) {
              return j.ticket == ticket;
            });
          }
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        } else {
          const std::uint32_t leaf = static_cast<std::uint32_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(task::leaf_count(*trees[ticket - 1])) - 1));
          c.on_leaf_finished(ticket, leaf);
          for (auto& ledger : shadow) {
            std::erase_if(ledger, [ticket, leaf](const LedgerJob& j) {
              return j.ticket == ticket && j.leaf == leaf;
            });
          }
        }
      }
      if (HasFatalFailure()) return;
    }
    resolve(c.flush(now), now);
    if (HasFatalFailure()) return;
  }
  // Every overload state admitted work and was checked.
  EXPECT_GT(admits_in[static_cast<int>(OverloadState::kNormal)], 100);
  EXPECT_GT(admits_in[static_cast<int>(OverloadState::kDegraded)], 20);
  EXPECT_GT(admits_in[static_cast<int>(OverloadState::kShedding)], 20);
  EXPECT_GT(degraded_admits, 0);
  RecordProperty("ledger_checks", checks);
  RecordProperty("rejects", rejects);
  RecordProperty("density_pessimism", pessimism);
}

}  // namespace
