// Ablation A6 — heterogeneous node speeds.
//
// The paper models a homogeneous system "so that observations are more
// comprehensible" (§5) while noting real components differ (§3.2).  Here we
// spread node speeds (mean held at 1.0) and check whether the PSP story
// survives: slow nodes become chronic stragglers, which hits parallel
// globals (whose completion is a max over nodes) harder than locals — so
// deadline promotion should matter *more*, not less.
#include "bench/common.hpp"

int bench::driver(int argc, char** argv) {
  using namespace sda;
  exp::ExperimentConfig base = exp::baseline_config();
  base.load = 0.5;
  bench::apply_kv_args(argc, argv, base);

  bench::print_header(
      "Ablation A6 — heterogeneous node speeds (load 0.5, mean speed 1.0)",
      "globals degrade faster than locals as speed spread grows; DIV-1/GF"
      " remain effective",
      base);

  struct Case {
    const char* label;
    std::vector<double> speeds;
  };
  const Case cases[] = {
      {"homogeneous", {}},
      {"mild spread (0.8..1.2)", {0.8, 0.9, 1.0, 1.0, 1.1, 1.2}},
      {"wide spread (0.5..1.5)", {0.5, 0.75, 1.0, 1.0, 1.25, 1.5}},
  };

  util::Table table({"speeds", "strategy", "MD_local", "MD_global"});
  for (const Case& kase : cases) {
    for (const char* psp : {"ud", "div-1", "gf"}) {
      exp::ExperimentConfig c = base;
      c.node_speeds = kase.speeds;
      c.psp = psp;
      const metrics::Report report = exp::run_experiment(c);
      table.add_row(
          {kase.label, psp,
           util::fmt_pct(report.summary(metrics::kLocalClass).miss_rate.mean),
           util::fmt_pct(
               report.summary(metrics::global_class(4)).miss_rate.mean)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}
