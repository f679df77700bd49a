// Queueing-theory validation of the node + source substrate.
//
// A single node fed by one Poisson local source with exponential service is
// an M/M/1 queue.  Closed forms:
//   utilization           rho = lambda/mu
//   mean sojourn time     W   = 1/(mu - lambda)
//   mean number in system L   = rho/(1 - rho)        (Little: L = lambda W)
// These hold for ANY work-conserving non-preemptive discipline's L and W
// averages only under FIFO; for EDF the mean sojourn differs but
// utilization and total-served counts must match (work conservation).
#include <gtest/gtest.h>

#include <memory>

#include "src/metrics/collector.hpp"
#include "src/sched/node.hpp"
#include "src/sim/engine.hpp"
#include "src/util/stats.hpp"
#include "src/workload/local_source.hpp"

namespace {

using namespace sda;

struct Mm1Result {
  double utilization = 0.0;
  double mean_sojourn = 0.0;
  double mean_in_system = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t generated = 0;
};

Mm1Result run_mm1(const std::string& policy, double lambda, double mu,
                  double horizon, std::uint64_t seed) {
  sim::Engine engine;
  sched::Node::Config nc;
  nc.index = 0;
  nc.policy = sched::parse_policy(policy);
  sched::Node node(engine, nc);
  metrics::Collector collector;

  util::RunningStat sojourn;
  node.set_outcome_handler([&](const task::TaskPtr& t,
                               sched::Node::Outcome o) {
    if (o != sched::Node::Outcome::kCompleted) return;
    sojourn.add(t->finished_at - t->attrs.arrival);
  });

  workload::LocalSource::Config lc;
  lc.lambda = lambda;
  lc.mean_exec = 1.0 / mu;
  lc.slack_min = 0.0;
  lc.slack_max = 100.0;  // deadlines irrelevant here
  workload::LocalSource source(engine, node, collector, util::Rng(seed), lc);
  source.start();
  engine.run_until(horizon);

  Mm1Result r;
  r.utilization = node.utilization();
  r.mean_sojourn = sojourn.mean();
  r.mean_in_system = node.mean_tasks_in_system();
  r.completed = node.completed();
  r.generated = source.generated();
  return r;
}

TEST(Mm1, UtilizationMatchesRho) {
  const auto r = run_mm1("fifo", 0.5, 1.0, 200000.0, 1);
  EXPECT_NEAR(r.utilization, 0.5, 0.01);
}

TEST(Mm1, FifoSojournMatchesClosedForm) {
  // W = 1/(mu - lambda) = 2 at rho = 0.5.
  const auto r = run_mm1("fifo", 0.5, 1.0, 200000.0, 2);
  EXPECT_NEAR(r.mean_sojourn, 2.0, 0.1);
}

TEST(Mm1, FifoHigherLoad) {
  // rho = 0.8: W = 5, L = 4.
  const auto r = run_mm1("fifo", 0.8, 1.0, 400000.0, 3);
  EXPECT_NEAR(r.utilization, 0.8, 0.01);
  EXPECT_NEAR(r.mean_sojourn, 5.0, 0.4);
  EXPECT_NEAR(r.mean_in_system, 4.0, 0.35);
}

TEST(Mm1, LittlesLawHolds) {
  const auto r = run_mm1("fifo", 0.6, 1.0, 300000.0, 4);
  // L = lambda * W, measured quantities on both sides.
  EXPECT_NEAR(r.mean_in_system, 0.6 * r.mean_sojourn, 0.08);
}

TEST(Mm1, ArrivalCountMatchesRate) {
  const auto r = run_mm1("fifo", 0.5, 1.0, 200000.0, 5);
  EXPECT_NEAR(static_cast<double>(r.generated), 100000.0, 1500.0);
  // Almost all generated tasks complete by the horizon at rho = 0.5.
  EXPECT_GT(r.completed, r.generated - 30);
}

TEST(Mm1, WorkConservationAcrossPolicies) {
  // EDF and FIFO serve the same arrival stream (same seed): identical
  // utilization and (nearly) identical completion counts.
  const auto fifo = run_mm1("fifo", 0.7, 1.0, 100000.0, 6);
  const auto edf = run_mm1("edf", 0.7, 1.0, 100000.0, 6);
  EXPECT_NEAR(fifo.utilization, edf.utilization, 1e-9);
  EXPECT_NEAR(static_cast<double>(fifo.completed),
              static_cast<double>(edf.completed), 5.0);
}

TEST(Mm1, SptBeatsFifoOnMeanSojourn) {
  // Classic result: SPT minimizes mean sojourn among non-preemptive rules.
  const auto fifo = run_mm1("fifo", 0.8, 1.0, 200000.0, 7);
  const auto spt = run_mm1("spt", 0.8, 1.0, 200000.0, 7);
  EXPECT_LT(spt.mean_sojourn, fifo.mean_sojourn);
}

}  // namespace
