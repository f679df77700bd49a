// Paper-vs-measured shape checking.
//
// EXPERIMENTS.md's contract is qualitative: orderings, crossovers, and
// monotonicities from the paper must hold, and the in-text §6.1/§7.3
// anchor numbers must land within a few points.  This module encodes every
// such claim as an executable check and runs them as one battery — the
// bench/reproduce_all binary prints the resulting scorecard, and the test
// suite runs a shortened battery as a regression gate.
#pragma once

#include <string>
#include <vector>

#include "src/exp/config.hpp"

namespace sda::exp::compare {

struct Check {
  std::string id;      ///< e.g. "fig7.gf-beats-div1"
  std::string claim;   ///< the paper's statement being verified
  bool pass = false;
  std::string detail;  ///< measured numbers backing the verdict
};

class Scorecard {
 public:
  /// Records a raw verdict.
  void add(std::string id, std::string claim, bool pass,
           std::string detail = {});

  /// measured within +-tolerance of expected.
  void check_near(std::string id, std::string claim, double measured,
                  double expected, double tolerance);

  /// a < b (+ margin slack, i.e. pass when a < b + margin).
  void check_less(std::string id, std::string claim, double a, double b,
                  double margin = 0.0);

  const std::vector<Check>& checks() const noexcept { return checks_; }
  std::size_t failures() const noexcept;
  bool all_passed() const noexcept { return failures() == 0; }

  /// Aligned text table: id, PASS/FAIL, claim, detail.
  std::string render() const;

 private:
  std::vector<Check> checks_;
};

/// Runs the full qualitative battery (every figure's orderings plus the
/// in-text anchors) on top of @p config: each check sets its own strategy
/// and swept variable, and the Figure 15 checks run the Figure 14 graph
/// with @p config's other settings.  Longer runs tighten the numeric
/// anchors; the battery's tolerances assume sim_time >= ~50k.
Scorecard run_reproduction_battery(const ExperimentConfig& config);

}  // namespace sda::exp::compare
