// Figure 6: UD vs DIV-1 vs DIV-2 in the baseline experiment.
//
// Shape to reproduce:
//  * DIV-1 roughly halves MD_global relative to UD (25% -> 13% at load 0.5)
//    at a mild cost to locals (9% -> 11.7%);
//  * DIV-2 is barely distinguishable from DIV-1 except at very high load;
//  * missed *work* improves under DIV-1 (0.13 -> 0.12 at load 0.5) even
//    though the missed-task *count* gets worse.
#include "bench/common.hpp"

int bench::driver(int argc, char** argv) {
  using namespace sda;
  exp::ExperimentConfig base = exp::baseline_config();
  bench::apply_kv_args(argc, argv, base);

  bench::print_header(
      "Figure 6 — UD vs DIV-x in the baseline experiment (MD vs load)",
      "DIV-1 halves MD_global (25%->13% at load .5) for +~2.7pp MD_local;"
      " DIV-2 ~= DIV-1 except at very high load",
      base);

  const auto loads = exp::figures::default_loads();
  auto series = exp::figures::load_sweep(
      base, {{"ud", "ud"}, {"div-1", "ud"}, {"div-2", "ud"}}, loads);

  bench::print_load_sweep_table(series, "load");
  bench::chart_load_sweep(series, "normalized load");

  for (std::size_t i = 0; i < loads.size(); ++i) {
    if (util::fne(loads[i], 0.5)) continue;
    const auto& ud = series[0].points[i];
    const auto& div1 = series[1].points[i];
    bench::check_line("MD_local(DIV-1) at load 0.5",
                      exp::figures::md(div1, metrics::kLocalClass), 0.117);
    bench::check_line("MD_global(DIV-1) at load 0.5",
                      exp::figures::md(div1, metrics::global_class(4)), 0.13);
    // §6.1 missed-work comparison.
    const double mw_ud = ud.report.overall_missed_work().mean;
    const double mw_div1 = div1.report.overall_missed_work().mean;
    std::printf("\nmissed work at load 0.5: UD %.3f vs DIV-1 %.3f "
                "(paper: 0.13 vs 0.12 — DIV-1 wins on work, loses on count)\n",
                mw_ud, mw_div1);
    // Missed-task *count* comparison over locals + globals (subtask misses
    // are already counted inside their global task).
    auto missed_count = [](const bench::SweepPoint& p) {
      double missed = 0.0;
      for (int cls : p.report.classes()) {
        if (cls == metrics::kSubtaskClass) continue;
        const auto s = p.report.summary(cls);
        missed += s.miss_rate.mean * static_cast<double>(s.finished_total);
      }
      return missed;
    };
    std::printf("missed task count at load 0.5: UD ~%.0f vs DIV-1 ~%.0f "
                "(paper: DIV-1 misses *more tasks* overall)\n",
                missed_count(ud), missed_count(div1));
  }
  return 0;
}
