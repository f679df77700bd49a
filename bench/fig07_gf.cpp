// Figure 7: UD vs DIV-1 vs GF in the baseline experiment.
//
// Shape to reproduce:
//  * GF and DIV-1 miss about the same number of *local* tasks;
//  * GF misses significantly fewer *global* tasks than DIV-1, and the gap
//    widens with load (the L_earlier "cutting the line" argument, Fig. 8:
//    the locals GF overtakes were going to miss anyway).
#include "bench/common.hpp"

int bench::driver(int argc, char** argv) {
  using namespace sda;
  exp::ExperimentConfig base = exp::baseline_config();
  bench::apply_kv_args(argc, argv, base);

  bench::print_header(
      "Figure 7 — UD vs DIV-1 vs GF in the baseline experiment (MD vs load)",
      "GF ~= DIV-1 on MD_local but significantly lower MD_global,"
      " especially at high load",
      base);

  const auto loads = exp::figures::default_loads();
  auto series = exp::figures::load_sweep(
      base, {{"ud", "ud"}, {"div-1", "ud"}, {"gf", "ud"}}, loads);

  bench::print_load_sweep_table(series, "load");
  bench::chart_load_sweep(series, "normalized load");

  // Quantify the DIV-1 -> GF gap growth with load.
  std::printf("MD_global(DIV-1) - MD_global(GF), by load:\n");
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const double gap =
        exp::figures::md(series[1].points[i], metrics::global_class(4)) -
        exp::figures::md(series[2].points[i], metrics::global_class(4));
    std::printf("  load %.2f: %+5.1fpp\n", loads[i], gap * 100.0);
  }
  std::printf("(paper: gap grows with load)\n");
  return 0;
}
