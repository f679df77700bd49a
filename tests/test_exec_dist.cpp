// Tests for service-time distributions, including M/G/1 Pollaczek-Khinchine
// validation of the queueing substrate under non-exponential service.
#include "src/workload/exec_dist.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/sched/node.hpp"
#include "src/sim/engine.hpp"
#include "src/util/stats.hpp"
#include "src/workload/local_source.hpp"

namespace {

using namespace sda;
using workload::ExecDistribution;
using workload::make_exec_distribution;

void check_moments(const ExecDistribution& d, std::uint64_t seed) {
  util::Rng rng(seed);
  util::RunningStat s;
  for (int i = 0; i < 200000; ++i) {
    const double x = d.sample(rng);
    ASSERT_GE(x, 0.0);
    s.add(x);
  }
  EXPECT_NEAR(s.mean(), d.mean(), 0.02 * std::max(1.0, d.mean())) << d.describe();
  const double measured_cv = s.mean() > 0 ? s.stddev() / s.mean() : 0.0;
  EXPECT_NEAR(measured_cv, d.cv(), 0.05 * std::max(1.0, d.cv())) << d.describe();
}

TEST(ExecDist, DeterministicMoments) {
  const auto d = ExecDistribution::deterministic(2.5);
  EXPECT_DOUBLE_EQ(d.mean(), 2.5);
  EXPECT_DOUBLE_EQ(d.cv(), 0.0);
  util::Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(d.sample(rng), 2.5);
}

TEST(ExecDist, UniformMoments) {
  const auto d = ExecDistribution::uniform(0.0, 2.0);
  EXPECT_DOUBLE_EQ(d.mean(), 1.0);
  EXPECT_NEAR(d.cv(), 1.0 / std::sqrt(3.0), 1e-12);
  check_moments(d, 2);
}

TEST(ExecDist, ExponentialMoments) {
  const auto d = ExecDistribution::exponential(1.5);
  EXPECT_DOUBLE_EQ(d.mean(), 1.5);
  EXPECT_DOUBLE_EQ(d.cv(), 1.0);
  check_moments(d, 3);
}

TEST(ExecDist, HyperexponentialMoments) {
  for (double cv : {1.5, 2.0, 4.0}) {
    const auto d = ExecDistribution::hyperexponential(1.0, cv);
    EXPECT_DOUBLE_EQ(d.mean(), 1.0);
    EXPECT_DOUBLE_EQ(d.cv(), cv);
    check_moments(d, 40 + static_cast<std::uint64_t>(cv * 10));
  }
}

TEST(ExecDist, Validation) {
  EXPECT_THROW(ExecDistribution::deterministic(-1.0), std::invalid_argument);
  EXPECT_THROW(ExecDistribution::uniform(2.0, 1.0), std::invalid_argument);
  EXPECT_THROW(ExecDistribution::uniform(-0.1, 1.0), std::invalid_argument);
  EXPECT_THROW(ExecDistribution::exponential(0.0), std::invalid_argument);
  EXPECT_THROW(ExecDistribution::hyperexponential(1.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(ExecDistribution::hyperexponential(0.0, 2.0),
               std::invalid_argument);
}

TEST(ExecDist, Factory) {
  EXPECT_DOUBLE_EQ(make_exec_distribution("exponential", 2.0).cv(), 1.0);
  EXPECT_DOUBLE_EQ(make_exec_distribution("deterministic", 2.0).cv(), 0.0);
  EXPECT_DOUBLE_EQ(make_exec_distribution("uniform", 2.0).mean(), 2.0);
  EXPECT_DOUBLE_EQ(make_exec_distribution("hyperexp", 2.0, 3.0).cv(), 3.0);
  EXPECT_THROW(make_exec_distribution("pareto", 1.0), std::invalid_argument);
}

TEST(ExecDist, Describe) {
  EXPECT_NE(ExecDistribution::exponential(1.0).describe().find("exponential"),
            std::string::npos);
  EXPECT_NE(ExecDistribution::hyperexponential(1.0, 2.0).describe().find("H2"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// M/G/1 validation (FIFO): Pollaczek-Khinchine mean waiting time
//   Wq = rho (1 + CV^2) / (2 (mu - lambda)) ... for mean service 1/mu.
// ---------------------------------------------------------------------------

double measure_wq(const ExecDistribution& service, double lambda,
                  double horizon, std::uint64_t seed) {
  sim::Engine engine;
  sched::Node::Config nc;
  nc.policy = sched::Policy::kFifo;
  sched::Node node(engine, nc);
  metrics::Collector collector;
  util::RunningStat wait;
  node.set_outcome_handler([&](const task::TaskPtr& t,
                               sched::Node::Outcome o) {
    if (o != sched::Node::Outcome::kCompleted) return;
    wait.add(t->started_at - t->attrs.arrival);
  });
  workload::LocalSource::Config lc;
  lc.lambda = lambda;
  lc.exec = service;
  workload::LocalSource source(engine, node, collector, util::Rng(seed), lc);
  source.start();
  engine.run_until(horizon);
  return wait.mean();
}

TEST(ExecDist, PollaczekKhinchineMd1) {
  // M/D/1 at rho = 0.5: Wq = 0.5 * 1 / (2 * 0.5) = 0.5 — exactly half the
  // M/M/1 value.
  const double wq =
      measure_wq(ExecDistribution::deterministic(1.0), 0.5, 300000.0, 7);
  EXPECT_NEAR(wq, 0.5, 0.05);
}

TEST(ExecDist, PollaczekKhinchineMg1Hyperexp) {
  // M/H2/1 with CV = 2 at rho = 0.5: Wq = 0.5 * (1 + 4) / (2 * 0.5) = 2.5.
  const double wq = measure_wq(ExecDistribution::hyperexponential(1.0, 2.0),
                               0.5, 400000.0, 8);
  EXPECT_NEAR(wq, 2.5, 0.25);
}

TEST(ExecDist, PollaczekKhinchineUniform) {
  // M/U(0,2)/1 at rho = 0.5: CV^2 = 1/3, Wq = 0.5 * (4/3) / 1 = 2/3.
  const double wq =
      measure_wq(ExecDistribution::uniform(0.0, 2.0), 0.5, 300000.0, 9);
  EXPECT_NEAR(wq, 2.0 / 3.0, 0.07);
}

}  // namespace
