// Figure 15 (with Table 2): combined SSP x PSP strategies on the Figure 14
// serial-parallel task graph {1, 4, 1, 4, 1} (the stock-trading scenario),
// global slack U[6.25, 25].
//
// Shape to reproduce:
//  * at low load globals miss slightly *less* than locals (their slack is
//    5x larger);
//  * UD-UD misses vastly more globals than locals as load grows;
//  * EQF-UD and UD-DIV1 each help substantially but are inadequate alone at
//    high load;
//  * EQF-DIV1 keeps MD_global close to MD_local up to load ~0.6 — the
//    benefits are additive.
#include "bench/common.hpp"

int bench::driver(int argc, char** argv) {
  using namespace sda;
  exp::ExperimentConfig base = exp::graph_config();
  bench::apply_kv_args(argc, argv, base);

  bench::print_header(
      "Figure 15 — SDA combinations on the Figure 14 graph (Table 2)",
      "UD-UD >> others on MD_global; EQF and DIV-1 each help; EQF-DIV1 keeps"
      " MD_global ~ MD_local up to load ~0.6",
      base);

  // Table 2: the four SSP/PSP combinations.
  const std::vector<std::pair<std::string, std::string>> combos = {
      {"ud", "ud"},     // UD-UD
      {"div-1", "ud"},  // UD-DIV1  (SSP=UD, PSP=DIV-1)
      {"ud", "eqf"},    // EQF-UD   (SSP=EQF, PSP=UD)
      {"div-1", "eqf"}, // EQF-DIV1
  };
  const auto loads = exp::figures::default_loads();
  auto series = exp::figures::load_sweep(base, combos, loads);
  // Rename for the paper's SSP-PSP naming order.
  series[0].psp = "UD-UD";   series[0].ssp = "ud";
  series[1].psp = "UD-DIV1"; series[1].ssp = "ud";
  series[2].psp = "EQF-UD";  series[2].ssp = "ud";
  series[3].psp = "EQF-DIV1"; series[3].ssp = "ud";

  bench::print_load_sweep_table(series, "load", false,
                                metrics::global_class(0));
  bench::chart_load_sweep(series, "normalized load", metrics::global_class(0));

  // Additivity summary at the highest common load with UD-UD not saturated.
  for (std::size_t i = 0; i < loads.size(); ++i) {
    if (util::fne(loads[i], 0.6)) continue;
    std::printf("at load 0.6, MD_global: UD-UD %.1f%%, UD-DIV1 %.1f%%, "
                "EQF-UD %.1f%%, EQF-DIV1 %.1f%% (MD_local(EQF-DIV1) %.1f%%)\n",
                exp::figures::md(series[0].points[i], metrics::global_class(0)) * 100,
                exp::figures::md(series[1].points[i], metrics::global_class(0)) * 100,
                exp::figures::md(series[2].points[i], metrics::global_class(0)) * 100,
                exp::figures::md(series[3].points[i], metrics::global_class(0)) * 100,
                exp::figures::md(series[3].points[i], metrics::kLocalClass) * 100);
  }
  return 0;
}
