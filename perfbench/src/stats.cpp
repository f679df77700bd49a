#include "src/stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <thread>

#include "src/util/feq.hpp"

namespace perfbench {

namespace {

// Nearest rank (1-based) of the pct-th percentile among n samples.  The
// small epsilon keeps 99.9% of 10000 at rank 9990 despite rounding.
std::size_t nearest_rank(std::size_t n, double pct) {
  const double r = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  if (r < 1.0) return 1;
  return std::min(n, static_cast<std::size_t>(r));
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank(sorted.size(), pct) - 1];
}

std::size_t samples_beyond(std::size_t n, double pct) {
  if (n == 0) return 0;
  return n - nearest_rank(n, pct);
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.median = percentile_sorted(samples, 50.0);
  for (const double p : {90.0, 99.0, 99.9, 99.99, 99.999}) {
    if (samples_beyond(s.n, p) < 10) break;
    s.tail_pct = p;
    s.tail = percentile_sorted(samples, p);
  }
  return s;
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, 50.0);
}

double pct(double part, double whole) {
  return sda::util::feq(whole, 0.0) ? 0.0 : 100.0 * part / whole;
}

double ratio(double num, double den) {
  return sda::util::feq(den, 0.0) ? 0.0 : num / den;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

HostShape host_shape() {
  HostShape h;
  h.nproc = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        h.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  if (h.cpu_model.empty()) h.cpu_model = "unknown";
  h.compiler = PERFBENCH_COMPILER;
  h.build_type = PERFBENCH_BUILD_TYPE;
  return h;
}

}  // namespace perfbench
