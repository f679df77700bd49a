// Ablation A7 — non-homogeneous subtask execution distributions.
//
// §7.4 varies the *number* of subtasks but leaves heterogeneous execution
// *distributions* to "space limitations".  Here each subtask's exponential
// mean is spread by a factor s^U[-1,1] (load solver compensates for the
// mean shift).  A wider spread makes the max-term in Equation 2 heavier
// relative to the typical subtask, so under UD globals should hurt more;
// DIV-x's promotion is size-blind and should still level things.
#include "bench/common.hpp"

int bench::driver(int argc, char** argv) {
  using namespace sda;
  exp::ExperimentConfig base = exp::baseline_config();
  base.load = 0.5;
  bench::apply_kv_args(argc, argv, base);

  bench::print_header(
      "Ablation A7 — per-subtask execution-time spread (load 0.5)",
      "heterogeneous subtask demands keep the UD >> DIV-1 >= GF ordering",
      base);

  util::Table table({"exec spread", "strategy", "MD_local", "MD_global"});
  for (double spread : {1.0, 2.0, 4.0}) {
    for (const char* psp : {"ud", "div-1", "gf"}) {
      exp::ExperimentConfig c = base;
      c.subtask_exec_spread = spread;
      c.psp = psp;
      const metrics::Report report = exp::run_experiment(c);
      table.add_row(
          {"s=" + util::fmt(spread, 1), psp,
           util::fmt_pct(report.summary(metrics::kLocalClass).miss_rate.mean),
           util::fmt_pct(
               report.summary(metrics::global_class(4)).miss_rate.mean)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}
