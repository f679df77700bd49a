// Percentile and ratio math shared by every workload.
//
// Timings follow one reporting rule: the median, plus the highest
// percentile on the ladder 90 / 99 / 99.9 / 99.99 / 99.999 that still has
// at least ten samples beyond it, with the sample count beside both.
// Percentiles use the nearest-rank definition: the p-th percentile of n
// sorted samples is the ceil(p/100 * n)-th smallest, so no value is ever
// interpolated between two measurements.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of @p sorted (ascending).  0 when empty.
double percentile_sorted(const std::vector<double>& sorted, double pct);

/// Samples strictly beyond the nearest-rank @p pct percentile of n samples.
std::size_t samples_beyond(std::size_t n, double pct);

/// The reporting rule above, applied to one set of samples.
struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double tail_pct = 0.0;  ///< 0 when fewer than 11 samples
  double tail = 0.0;
};
Summary summarize(std::vector<double> samples);

/// Median of @p samples (nearest rank); 0 when empty.
double median(std::vector<double> samples);

/// 100 * part / whole; 0 when whole is 0.
double pct(double part, double whole);

/// num / den; 0 when den is 0.
double ratio(double num, double den);

/// True when @p name is a legal metric or workload name: 1..64 characters
/// from [A-Za-z0-9_.-], starting with a letter or digit.
bool valid_metric_name(const std::string& name);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Host-shape stamp fields (see README.md): logical CPUs, CPU model,
/// compiler and build type.
struct HostShape {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
};
HostShape host_shape();

}  // namespace perfbench
