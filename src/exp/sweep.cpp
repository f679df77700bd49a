#include "src/exp/sweep.hpp"

#include <cstddef>
#include <stdexcept>
#include <utility>

#include "src/metrics/collector.hpp"

namespace sda::exp {

std::vector<SweepPoint> sweep(const ExperimentConfig& base,
                              const std::vector<double>& xs, ApplyFn apply) {
  return sweep(base, xs, apply, util::ThreadPool::shared());
}

std::vector<SweepPoint> sweep(const ExperimentConfig& base,
                              const std::vector<double>& xs, ApplyFn apply,
                              util::ThreadPool& pool) {
  // Materialize and validate every point's config up front (run_experiment
  // would have validated lazily; eager validation just fails sooner).
  std::vector<ExperimentConfig> configs;
  configs.reserve(xs.size());
  for (double x : xs) {
    ExperimentConfig c = base;
    apply(c, x);
    c.validate_or_throw();
    configs.push_back(std::move(c));
  }

  // Flatten the figure into independent (point, replication) cells so the
  // pool load-balances across the whole figure at once.
  struct Cell {
    std::size_t point;
    int rep;
  };
  std::vector<Cell> cells;
  std::vector<std::vector<metrics::Collector>> collectors(configs.size());
  for (std::size_t p = 0; p < configs.size(); ++p) {
    const int reps = configs[p].replications;
    collectors[p].resize(static_cast<std::size_t>(reps));
    for (int rep = 0; rep < reps; ++rep) cells.push_back(Cell{p, rep});
  }
  pool.parallel_for(cells.size(), [&](std::size_t i) {
    const Cell cell = cells[i];
    const ExperimentConfig& c = configs[cell.point];
    collectors[cell.point][static_cast<std::size_t>(cell.rep)] = std::move(
        run_once(c, replication_seed(c.seed, cell.rep)).collector);
  });

  // Deterministic fold: points in x order, replications in rep order —
  // exactly the sequential run_experiment schedule.
  std::vector<SweepPoint> points;
  points.reserve(configs.size());
  for (std::size_t p = 0; p < configs.size(); ++p) {
    metrics::Report report;
    for (const metrics::Collector& c : collectors[p]) {
      report.add_replication(c);
    }
    points.push_back(SweepPoint{xs[p], std::move(report)});
  }
  return points;
}

std::vector<double> linspace(double lo, double hi, int n) {
  if (n < 1) throw std::invalid_argument("linspace: n must be >= 1");
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  if (n == 1) {
    out.push_back(lo);
    return out;
  }
  for (int i = 0; i < n; ++i) {
    out.push_back(lo + (hi - lo) * static_cast<double>(i) /
                           static_cast<double>(n - 1));
  }
  return out;
}

}  // namespace sda::exp
