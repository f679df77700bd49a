// Ablation A9 — bursty local arrivals (transient overload, made explicit).
//
// §5: "it is the occasional experience of transient overload that accounts
// for most of the missed deadlines".  Here the local streams switch between
// ON bursts (rate x factor) and OFF periods, mean load unchanged.  Expected:
// all miss rates rise with burstiness, and GF's advantage should persist or
// grow — during a local burst the L_earlier set (doomed locals that GF cuts
// ahead of) is exactly what explodes.
#include "bench/common.hpp"

int bench::driver(int argc, char** argv) {
  using namespace sda;
  exp::ExperimentConfig base = exp::baseline_config();
  base.load = 0.5;
  bench::apply_kv_args(argc, argv, base);

  bench::print_header(
      "Ablation A9 — bursty local arrivals (load 0.5, mean rate unchanged)",
      "transient overload drives misses (paper §5); deadline promotion keeps"
      " paying off under bursts",
      base);

  util::Table table({"burst factor", "strategy", "MD_local", "MD_global"});
  for (double factor : {1.0, 2.0, 4.0, 8.0}) {
    for (const char* psp : {"ud", "div-1", "gf"}) {
      exp::ExperimentConfig c = base;
      c.local_burst_factor = factor;
      c.psp = psp;
      const metrics::Report report = exp::run_experiment(c);
      table.add_row(
          {"x" + util::fmt(factor, 0), psp,
           util::fmt_pct(report.summary(metrics::kLocalClass).miss_rate.mean),
           util::fmt_pct(
               report.summary(metrics::global_class(4)).miss_rate.mean)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}
