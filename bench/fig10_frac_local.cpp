// Figure 10: MD of (a) DIV-1 and (b) GF as functions of frac_local, with UD
// shown for reference (load fixed at the baseline 0.5).
//
// Shape to reproduce:
//  * under UD, both MD_local and MD_global *increase* slightly with
//    frac_local (locals are slightly more competitive than globals because
//    of the max-term in Equation 2);
//  * under DIV-1 and GF the MD curves *drop* as frac_local increases: the
//    strategies are most effective when there is a large local population
//    to cut ahead of;
//  * at frac_local = 0, GF degenerates to UD exactly (all deadlines shift
//    by the same DELTA).
#include "bench/common.hpp"

int bench::driver(int argc, char** argv) {
  using namespace sda;
  exp::ExperimentConfig base = exp::baseline_config();
  bench::apply_kv_args(argc, argv, base);

  bench::print_header(
      "Figure 10 — DIV-1 (a) and GF (b) vs frac_local, UD for reference",
      "MD(UD) rises mildly with frac_local; MD(DIV-1)/MD(GF) fall —"
      " most effective with a large local population; GF == UD at"
      " frac_local = 0",
      base);

  const std::vector<double> fracs = {0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9};
  const auto apply = [](exp::ExperimentConfig& c, double f) {
    c.frac_local = f;
  };

  std::vector<exp::figures::LoadSweepSeries> series;
  for (const char* psp : {"ud", "div-1", "gf"}) {
    exp::ExperimentConfig c = base;
    c.psp = psp;
    exp::figures::LoadSweepSeries s;
    s.psp = psp;
    s.ssp = "ud";
    s.points = exp::sweep(c, fracs, apply);
    series.push_back(std::move(s));
  }

  bench::print_load_sweep_table(series, "frac_local");
  bench::chart_load_sweep(series, "frac_local");

  // GF == UD when there are no local tasks (frac_local = 0): identical
  // arrival streams (common random numbers) make this an exact check up to
  // the subtask-vs-subtask EDF order, which GF preserves.
  const double ud0 =
      exp::figures::md(series[0].points[0], metrics::global_class(4));
  const double gf0 =
      exp::figures::md(series[2].points[0], metrics::global_class(4));
  std::printf("frac_local=0: MD_global(UD) = %.2f%% vs MD_global(GF) = %.2f%%"
              "  (paper: identical)\n",
              ud0 * 100, gf0 * 100);
  return 0;
}
