// Ablation A3 — EQF's sensitivity to execution-time estimation error.
//
// EQF needs pex(); [6] claims it "delivers good performance even when the
// estimate can be off by a factor of 2".  We run the Figure 15 EQF-DIV1
// configuration with pex = ex * f^U[-1,1] for increasing noise factors f,
// plus the degenerate always-the-mean estimator.
#include "bench/common.hpp"

int bench::driver(int argc, char** argv) {
  using namespace sda;
  exp::ExperimentConfig base = exp::graph_config();
  base.load = 0.6;
  base.psp = "div-1";
  base.ssp = "eqf";
  bench::apply_kv_args(argc, argv, base);

  bench::print_header(
      "Ablation A3 — EQF vs pex estimation error (Fig 14 graph, load 0.6)",
      "[6]: EQF tolerates estimates off by a factor of ~2; degradation"
      " should be graceful",
      base);

  util::Table table({"pex model", "MD_local", "MD_global"});
  struct Case {
    const char* label;
    workload::PexModel model;
  };
  const Case cases[] = {
      {"exact", workload::PexModel::exact()},
      {"noise f=1.5", workload::PexModel::log_uniform(1.5)},
      {"noise f=2", workload::PexModel::log_uniform(2.0)},
      {"noise f=4", workload::PexModel::log_uniform(4.0)},
      {"noise f=8", workload::PexModel::log_uniform(8.0)},
      {"always mean (1.0)", workload::PexModel::distribution_mean(1.0)},
  };
  for (const Case& kase : cases) {
    exp::ExperimentConfig c = base;
    c.pex = kase.model;
    const metrics::Report report = exp::run_experiment(c);
    table.add_row(
        {kase.label,
         util::fmt_pct(report.summary(metrics::kLocalClass).miss_rate.mean),
         util::fmt_pct(
             report.summary(metrics::global_class(0)).miss_rate.mean)});
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}
