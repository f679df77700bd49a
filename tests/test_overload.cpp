// End-to-end overload robustness: the admission gate in front of the
// simulator under a seeded 2x overload burst.  Asserts the headline
// guarantees — admitted tasks keep their deadlines, the overload state
// machine cycles and recovers, and the plan cache never changes behavior.
#include <gtest/gtest.h>

#include <memory>

#include "src/core/admission.hpp"
#include "src/exp/config.hpp"
#include "src/exp/runner.hpp"
#include "src/metrics/collector.hpp"
#include "src/metrics/trace.hpp"

namespace {

using namespace sda;

/// 2x sustained overload, bursty (IPP factor 3), preemptive EDF with
/// exact execution predictions and no local traffic — the regime where
/// the per-node feasibility tests are exact, so admission implies zero
/// deadline misses among admitted tasks.
exp::ExperimentConfig overload_config() {
  exp::ExperimentConfig c;
  c.admission = true;
  c.load = 2.0;
  c.frac_local = 0.0;
  c.preemptive = true;
  c.global_burst_factor = 3.0;
  c.global_burst_cycle = 50.0;
  c.sim_time = 2000.0;
  c.replications = 1;
  return c;
}

std::uint64_t total_missed(const metrics::Collector& collector) {
  std::uint64_t missed = 0;
  for (const int cls : collector.classes()) {
    missed += collector.counts(cls).missed;
  }
  return missed;
}

TEST(Overload, AdmittedTasksKeepTheirDeadlinesUnderTwoXBurst) {
  const exp::ExperimentConfig c = overload_config();
  metrics::Tracer tracer(1);
  const exp::RunResult r = exp::run_once(c, exp::replication_seed(c.seed, 0),
                                         &tracer);

  // The gate actually bit: a 2x burst cannot be admitted wholesale.
  EXPECT_GT(r.admission.submitted, 0u);
  EXPECT_GT(r.admission.rejected + r.admission.shed, 0u);
  EXPECT_EQ(r.globals_not_admitted,
            r.admission.rejected + r.admission.shed);
  EXPECT_GT(r.globals_completed, 0u);

  // The feasibility guarantee: every admitted run met its (possibly
  // stretched) deadline, and nothing crashed or wedged getting there.
  EXPECT_EQ(total_missed(r.collector), 0u);
  EXPECT_EQ(r.globals_aborted, 0u);

  // Sustained overload drove the state machine out of normal.
  EXPECT_GE(r.admission.to_degraded, 1u);
}

TEST(Overload, StateMachineShedsAndRecovers) {
  // Long quiet OFF phases (IPP ON fraction = 1/4) between hard bursts:
  // pressure must cross into shedding during bursts and decay back to
  // normal in the gaps — the full cycle, both transition directions.
  exp::ExperimentConfig c = overload_config();
  c.global_burst_factor = 4.0;
  c.global_burst_cycle = 120.0;
  c.sim_time = 3000.0;
  metrics::Tracer tracer(1);
  const exp::RunResult r = exp::run_once(c, exp::replication_seed(c.seed, 0),
                                         &tracer);
  EXPECT_GE(r.admission.to_shedding, 1u);
  EXPECT_GE(r.admission.to_normal, 1u);
  EXPECT_GT(r.admission.shed + r.admission.rejected, 0u);
  EXPECT_EQ(total_missed(r.collector), 0u);
}

TEST(Overload, GatedRunsAreDeterministicAcrossReruns) {
  // The controller holds unordered containers; none of their iteration
  // order may leak into decisions.  Two fresh runs, same seed, same
  // fingerprint.
  const exp::ExperimentConfig c = overload_config();
  metrics::Tracer ta(1), tb(1);
  (void)exp::run_once(c, exp::replication_seed(c.seed, 0), &ta);
  (void)exp::run_once(c, exp::replication_seed(c.seed, 0), &tb);
  EXPECT_EQ(ta.fingerprint(), tb.fingerprint());
}

}  // namespace
