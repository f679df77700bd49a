// Parameter sweeps: one figure series = one sweep.
#pragma once

#include <vector>

#include "src/exp/config.hpp"
#include "src/exp/runner.hpp"
#include "src/metrics/report.hpp"
#include "src/util/function_ref.hpp"
#include "src/util/thread_pool.hpp"

namespace sda::exp {

/// One x-position of a figure, with the aggregated replications.
struct SweepPoint {
  double x = 0.0;
  metrics::Report report;
};

/// Mutator applying the sweep variable to a config (e.g. set the load).
/// Non-owning: sweep() materializes every config before returning, so a
/// lambda temporary at the call site is fine.
using ApplyFn = util::FunctionRef<void(ExperimentConfig&, double)>;

/// Runs run_experiment at every x in @p xs, on copies of @p base mutated by
/// @p apply.  Points are independent; each uses the base seed schedule so
/// series differing only in strategy share arrival randomness (common
/// random numbers, reducing comparison variance like the paper's paired
/// runs).
///
/// Execution is flattened to (point x replication) cells on the shared
/// fork-join executor, so a whole figure saturates every core instead of
/// parallelizing only within one point's replications.  Cells are folded
/// back in (point, replication) order, which keeps every Report
/// bit-identical to the sequential path regardless of pool size.
std::vector<SweepPoint> sweep(const ExperimentConfig& base,
                              const std::vector<double>& xs, ApplyFn apply);

/// Same, on an explicit pool (determinism tests compare pool sizes).
std::vector<SweepPoint> sweep(const ExperimentConfig& base,
                              const std::vector<double>& xs, ApplyFn apply,
                              util::ThreadPool& pool);

/// n evenly spaced values from lo to hi inclusive (n >= 2), or {lo} if n==1.
std::vector<double> linspace(double lo, double hi, int n);

}  // namespace sda::exp
