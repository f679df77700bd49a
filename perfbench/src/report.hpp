// Result assembly: metrics with units and sample counts, correctness
// checks, the host-shape stamp, and the one-line JSON result that ends
// every run's standard output.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/stats.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< measurements behind the value
  std::string detail;       ///< e.g. the tail percentile, for the log
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples, const std::string& detail = {});

  /// Records a timing under the reporting rule (median + tail percentile,
  /// with the sample count) on the detail log.
  void log_timing(const std::string& what, const std::string& unit,
                  const Summary& s);

  /// Records one correctness check; a failed check is a failed operation.
  void check(bool ok, const std::string& what);

  /// Operations performed (replications, submissions, checks).
  void attempt(std::uint64_t n) { attempted_ += n; }
  /// Operations that failed outside a named check (e.g. unanswered subs).
  void fail(std::uint64_t n, const std::string& why);

  void note(const std::string& line) { notes_.push_back(line); }

  /// Writes the human-readable log, the host stamp, and the final JSON
  /// line (the only line a harness needs to parse).
  void print(std::ostream& out, const std::string& workload,
             std::uint64_t seed, bool trace) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t checks_ = 0;
};

/// JSON string literal for @p s.
std::string json_string(const std::string& s);

/// Shortest round-trip decimal form of a finite double ("0" otherwise).
std::string json_number(double v);

}  // namespace perfbench
