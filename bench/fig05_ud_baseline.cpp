// Figure 5: performance of UD in the baseline experiment.
//
// MD of local tasks, simple subtasks, and global tasks vs normalized load,
// with every subtask inheriting the global end-to-end deadline (UD).
//
// Shape to reproduce:
//  * all three curves increase with load;
//  * MD_subtask sits slightly *below* MD_local (subtasks get a bit more
//    slack, Equation 3);
//  * MD_global is far above both — roughly 1-(1-MD_subtask)^4 — about 3x
//    MD_local at load 0.5 (25% vs 8.9%).
#include <cmath>

#include "bench/common.hpp"

int bench::driver(int argc, char** argv) {
  using namespace sda;
  exp::ExperimentConfig base = exp::baseline_config();
  bench::apply_kv_args(argc, argv, base);

  bench::print_header(
      "Figure 5 — UD in the baseline experiment (MD vs load)",
      "at load 0.5: MD_local 8.9%, MD_subtask 7.1%, MD_global 25% (~3x local);"
      " 1-(1-0.071)^4 ~ 25.5% predicts the amplification",
      base);

  const auto loads = exp::figures::default_loads();
  auto series = exp::figures::load_sweep(base, {{"ud", "ud"}}, loads);

  bench::print_load_sweep_table(series, "load", /*include_subtask=*/true);
  bench::chart_load_sweep(series, "normalized load");

  // The paper's §6.1 amplification argument at load 0.5.
  for (const auto& p : series.front().points) {
    if (util::fne(p.x, 0.5)) continue;
    const double ms = exp::figures::md(p, metrics::kSubtaskClass);
    const double mg = exp::figures::md(p, metrics::global_class(4));
    const double predicted = 1.0 - std::pow(1.0 - ms, 4.0);
    std::printf("independence check at load 0.5: MD_subtask=%.1f%% => "
                "1-(1-ms)^4 = %.1f%% vs measured MD_global = %.1f%%\n",
                ms * 100, predicted * 100, mg * 100);
    bench::check_line("MD_local(UD) at load 0.5",
                      exp::figures::md(p, metrics::kLocalClass), 0.089);
    bench::check_line("MD_subtask(UD) at load 0.5", ms, 0.071);
    bench::check_line("MD_global(UD) at load 0.5", mg, 0.25);
  }
  return 0;
}
