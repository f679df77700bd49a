// Shared output helpers for the figure-regeneration benches.
//
// Every bench takes sda_run's key=value arguments (apply_kv_args) and
// prints:  (1) a header with the figure id, the paper's claim, and the
// run-length settings;  (2) a numeric table of the measured series
// (with 95% CIs when more than one replication ran);  (3) an ASCII chart of
// the same series so the figure's *shape* can be compared with the paper.
#pragma once

#include <cstddef>
#include <cstdio>
#include <stdexcept>
#include <sstream>
#include <string>
#include <vector>

#include "src/exp/config.hpp"
#include "src/exp/figures.hpp"
#include "src/metrics/task_class.hpp"
#include "src/util/ascii_chart.hpp"
#include "src/util/env.hpp"
#include "src/util/feq.hpp"
#include "src/util/table.hpp"

namespace bench {

using sda::exp::ExperimentConfig;
using sda::exp::SweepPoint;
using sda::exp::figures::LoadSweepSeries;

/// Each bench's body, called by the main() in bench_main.cpp: apply the
/// arguments to the figure's base config (apply_kv_args), run, and return
/// the exit code.  main() turns any exception into its message on stderr
/// and exit 64, as sda_run does: a bad argument, or a swept point that
/// validate() refuses under the user's overrides (`fig09_choosing_x k=4`
/// at n=6).
int driver(int argc, char** argv);

/// Applies key=value command-line overrides to @p config through the
/// ExperimentConfig kv API (`fig07_gf sim_time=1000000 k=8`), so every
/// bench takes the same keys as sda_run, run length included, and then
/// validates the result.  Unknown keys and bad values throw set()'s error —
/// including its did-you-mean suggestion — as do malformed (no '=') args
/// and an invalid config.  A key a bench sets per point (its swept
/// variable) is overwritten there.
inline void apply_kv_args(int argc, char** argv, ExperimentConfig& config) {
  sda::util::warn_unknown_sda_env();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument(std::string("usage: ") + argv[0] +
                                  " [key=value ...]");
    }
    config.set(arg.substr(0, eq), arg.substr(eq + 1));
  }
  config.validate_or_throw();
}

/// One-line run-length summary for bench headers.
inline std::string describe_run(const ExperimentConfig& config) {
  std::ostringstream os;
  os << "sim_time=" << config.sim_time << " x " << config.replications
     << " replications, warmup=" << config.warmup_fraction * 100
     << "%, seed=" << config.seed;
  return os.str();
}

inline void print_header(const std::string& figure,
                         const std::string& paper_claim,
                         const ExperimentConfig& base) {
  std::printf("================================================================\n");
  std::printf("%s\n", figure.c_str());
  std::printf("================================================================\n");
  std::printf("paper:    %s\n", paper_claim.c_str());
  std::printf("system:   %s\n", base.describe().c_str());
  std::printf("run:      %s\n", describe_run(base).c_str());
  std::printf("\n");
}

/// Formats one MD cell, with the CI half-width when available.
inline std::string md_cell(const SweepPoint& p, int cls) {
  const auto s = p.report.summary(cls).miss_rate;
  if (s.n >= 2) return sda::util::fmt_pct_ci(s.mean, s.half_width);
  return sda::util::fmt_pct(s.mean);
}

/// Prints a table for a set of load-sweep series: one row per x-value, one
/// MD_local and MD_global column pair per series (plus MD_subtask for the
/// first series when requested).
inline void print_load_sweep_table(
    const std::vector<LoadSweepSeries>& series, const std::string& x_name,
    bool include_subtask = false, int global_cls = sda::metrics::global_class(4)) {
  std::vector<std::string> header{x_name};
  for (const auto& s : series) {
    std::string tag = s.ssp == "ud" ? s.psp : s.ssp + "-" + s.psp;
    std::string local_col("MD_local(");
    local_col += tag;
    local_col += ")";
    std::string global_col("MD_global(");
    global_col += tag;
    global_col += ")";
    header.push_back(std::move(local_col));
    header.push_back(std::move(global_col));
  }
  if (include_subtask && !series.empty()) header.push_back("MD_subtask(first)");
  sda::util::Table table(header);

  if (series.empty()) return;
  const std::size_t rows = series.front().points.size();
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::string> row{sda::util::fmt(series.front().points[r].x, 2)};
    for (const auto& s : series) {
      row.push_back(md_cell(s.points[r], sda::metrics::kLocalClass));
      row.push_back(md_cell(s.points[r], global_cls));
    }
    if (include_subtask) {
      row.push_back(md_cell(series.front().points[r], sda::metrics::kSubtaskClass));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());
}

/// Charts MD_global (solid in the paper) and MD_local (dotted) per series.
inline void chart_load_sweep(const std::vector<LoadSweepSeries>& series,
                             const std::string& x_label,
                             int global_cls = sda::metrics::global_class(4)) {
  sda::util::AsciiChart chart(72, 22);
  chart.set_labels(x_label, "fraction of missed deadlines");
  const char markers[] = {'G', 'D', 'U', 'E', 'X', 'O'};
  int mi = 0;
  for (const auto& s : series) {
    const std::string tag = s.ssp == "ud" ? s.psp : s.ssp + "-" + s.psp;
    sda::util::Series global_series;
    global_series.name = "MD_global " + tag;
    global_series.marker = markers[mi % 6];
    sda::util::Series local_series;
    local_series.name = "MD_local " + tag;
    local_series.marker =
        static_cast<char>(std::tolower(markers[mi % 6]));
    ++mi;
    for (const auto& p : s.points) {
      global_series.xs.push_back(p.x);
      global_series.ys.push_back(sda::exp::figures::md(p, global_cls));
      local_series.xs.push_back(p.x);
      local_series.ys.push_back(
          sda::exp::figures::md(p, sda::metrics::kLocalClass));
    }
    chart.add(std::move(global_series));
    chart.add(std::move(local_series));
  }
  std::printf("%s\n", chart.render().c_str());
}

/// "Measured vs paper" one-liner, for the in-text anchor numbers.
inline void check_line(const std::string& what, double measured,
                       double paper) {
  std::printf("  %-52s measured %6.1f%%   paper ~%5.1f%%\n", what.c_str(),
              measured * 100.0, paper * 100.0);
}

}  // namespace bench
