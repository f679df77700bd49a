// Figure 11: UD vs DIV-1 with process-manager abortion (tasks are killed at
// their *real* deadline; local schedulers never abort).
//
// Shape to reproduce:
//  * all miss rates drop relative to the no-abortion Figure 7 (no resources
//    wasted on tardy tasks);
//  * DIV-1 still roughly halves MD_global (paper at load 0.5: UD 15.0% ->
//    DIV-1 7.8%);
//  * GF performs like DIV-1 here (the paper omits its curves; we print them
//    for completeness).
#include "bench/common.hpp"

int bench::driver(int argc, char** argv) {
  using namespace sda;
  exp::ExperimentConfig base = exp::baseline_config();
  base.pm_abort = core::PmAbortMode::kRealDeadline;
  bench::apply_kv_args(argc, argv, base);

  bench::print_header(
      "Figure 11 — UD vs DIV-1 with process-manager abortion (MD vs load)",
      "abortion lowers all miss rates; at load 0.5 MD_global: UD 15.0% vs"
      " DIV-1 7.8%; GF ~= DIV-1 (curves omitted in the paper)",
      base);

  const auto loads = exp::figures::default_loads();
  auto series = exp::figures::load_sweep(
      base, {{"ud", "ud"}, {"div-1", "ud"}, {"gf", "ud"}}, loads);

  bench::print_load_sweep_table(series, "load");
  bench::chart_load_sweep(series, "normalized load");

  for (std::size_t i = 0; i < loads.size(); ++i) {
    if (util::fne(loads[i], 0.5)) continue;
    bench::check_line(
        "MD_global(UD, pm-abort) at load 0.5",
        exp::figures::md(series[0].points[i], metrics::global_class(4)), 0.15);
    bench::check_line(
        "MD_global(DIV-1, pm-abort) at load 0.5",
        exp::figures::md(series[1].points[i], metrics::global_class(4)),
        0.078);
  }
  return 0;
}
