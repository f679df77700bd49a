// Shared figure-regeneration helpers used by the bench binaries and the
// figure smoke tests (DESIGN.md Section 3 maps each paper figure to these).
#pragma once

#include <string>
#include <vector>

#include "src/exp/sweep.hpp"

namespace sda::exp::figures {

/// The load grid used by the load-sweep figures (5, 6, 7, 11, 15).
std::vector<double> default_loads();

/// One strategy's curve in a load-sweep figure.
struct LoadSweepSeries {
  std::string psp;  ///< PSP strategy name used
  std::string ssp;  ///< SSP strategy name used
  std::vector<SweepPoint> points;
};

/// Runs a load sweep for each (psp, ssp) pair on top of @p base.
std::vector<LoadSweepSeries> load_sweep(
    const ExperimentConfig& base,
    const std::vector<std::pair<std::string, std::string>>& strategies,
    const std::vector<double>& loads);

/// MD point estimate for a class at one sweep point.
double md(const SweepPoint& p, int cls);

/// MD confidence-interval half width for a class at one sweep point.
double md_hw(const SweepPoint& p, int cls);

/// Pooled global-task MD across all global_class(n) classes observed
/// (needed when n is drawn from a range).
double md_global_pooled(const SweepPoint& p);

}  // namespace sda::exp::figures
