// Ablation A4 — GF's DELTA is arbitrary as long as it is "big".
//
// GF subtracts a large constant from the subtask deadline so globals always
// beat locals on a pure EDF node while the EDF order *within* globals is
// preserved.  Any DELTA exceeding the deadline horizon should therefore be
// equivalent; too-small DELTAs degrade gracefully toward UD.
#include "bench/common.hpp"

int bench::driver(int argc, char** argv) {
  using namespace sda;
  exp::ExperimentConfig base = exp::baseline_config();
  base.load = 0.6;
  bench::apply_kv_args(argc, argv, base);

  bench::print_header(
      "Ablation A4 — GF DELTA sensitivity (load 0.6)",
      "all DELTA >> deadline horizon give identical results; small DELTA"
      " degrades toward UD",
      base);

  util::Table table({"DELTA", "MD_local", "MD_global"});
  // The deadline horizon here is ~ max ex + S_max ~ 10 time units; small
  // deltas below that no longer dominate every local deadline.
  for (const char* psp :
       {"ud", "gf-1", "gf-5", "gf-20", "gf-1000", "gf-1000000000"}) {
    exp::ExperimentConfig c = base;
    c.psp = psp;
    const metrics::Report report = exp::run_experiment(c);
    table.add_row(
        {psp,
         util::fmt_pct(report.summary(metrics::kLocalClass).miss_rate.mean),
         util::fmt_pct(
             report.summary(metrics::global_class(4)).miss_rate.mean)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("(gf-20 onward should be indistinguishable: with slack <= 5\n"
              "and exponential execution times, deadlines rarely stretch\n"
              "20 units past arrival.)\n");
  return 0;
}
