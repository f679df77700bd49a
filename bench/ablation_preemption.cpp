// Ablation A2 — non-preemptive (paper) vs preemptive-resume EDF service.
//
// The paper's nodes pick the earliest-deadline task only when the server
// frees up.  This ablation checks that the PSP story (UD >> DIV-1 > GF on
// MD_global) is not an artifact of non-preemptive service.
#include "bench/common.hpp"

int bench::driver(int argc, char** argv) {
  using namespace sda;
  exp::ExperimentConfig base = exp::baseline_config();
  base.load = 0.6;
  bench::apply_kv_args(argc, argv, base);

  bench::print_header(
      "Ablation A2 — preemptive-resume vs non-preemptive EDF (load 0.6)",
      "the UD >> DIV-1 > GF ordering should hold under both service"
      " disciplines",
      base);

  util::Table table({"service", "strategy", "MD_local", "MD_global"});
  for (bool preemptive : {false, true}) {
    for (const char* psp : {"ud", "div-1", "gf"}) {
      exp::ExperimentConfig c = base;
      c.preemptive = preemptive;
      c.psp = psp;
      const metrics::Report report = exp::run_experiment(c);
      table.add_row(
          {preemptive ? "preemptive" : "non-preemptive", psp,
           util::fmt_pct(report.summary(metrics::kLocalClass).miss_rate.mean),
           util::fmt_pct(
               report.summary(metrics::global_class(4)).miss_rate.mean)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}
