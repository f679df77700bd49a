#include "src/exp/figures.hpp"

#include "src/metrics/task_class.hpp"

namespace sda::exp::figures {

std::vector<double> default_loads() {
  return {0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
}

std::vector<LoadSweepSeries> load_sweep(
    const ExperimentConfig& base,
    const std::vector<std::pair<std::string, std::string>>& strategies,
    const std::vector<double>& loads) {
  std::vector<LoadSweepSeries> out;
  out.reserve(strategies.size());
  for (const auto& [psp, ssp] : strategies) {
    ExperimentConfig c = base;
    c.psp = psp;
    c.ssp = ssp;
    LoadSweepSeries series;
    series.psp = psp;
    series.ssp = ssp;
    series.points = sweep(
        c, loads, [](ExperimentConfig& cfg, double load) { cfg.load = load; });
    out.push_back(std::move(series));
  }
  return out;
}

double md(const SweepPoint& p, int cls) {
  return p.report.summary(cls).miss_rate.mean;
}

double md_hw(const SweepPoint& p, int cls) {
  return p.report.summary(cls).miss_rate.half_width;
}

double md_global_pooled(const SweepPoint& p) {
  // Weight each global class by its pooled finished count.
  double missed_weighted = 0.0;
  double finished = 0.0;
  for (int cls : p.report.classes()) {
    if (!metrics::is_global_class(cls)) continue;
    const metrics::ClassSummary s = p.report.summary(cls);
    missed_weighted +=
        s.miss_rate.mean * static_cast<double>(s.finished_total);
    finished += static_cast<double>(s.finished_total);
  }
  return finished > 0.0 ? missed_weighted / finished : 0.0;
}

}  // namespace sda::exp::figures
