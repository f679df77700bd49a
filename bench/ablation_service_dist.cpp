// Ablation A11 — service-time distribution (is the paper exponential-bound?).
//
// The paper's exponential execution times fix the coefficient of variation
// at 1.  Sweeping CV from 0 (deterministic) to 4 (hyperexponential) checks
// whether the PSP conclusions are a property of the heuristics or of the
// distributional choice.  Expected: absolute miss rates track CV strongly
// (variability is what makes deadlines miss), but the UD >> DIV-1 >= GF
// ordering — and DIV-1's "halve MD_global" effect — persist throughout.
#include "bench/common.hpp"

int bench::driver(int argc, char** argv) {
  using namespace sda;
  exp::ExperimentConfig base = exp::baseline_config();
  base.load = 0.5;
  bench::apply_kv_args(argc, argv, base);

  bench::print_header(
      "Ablation A11 — service-time distribution (load 0.5, mean fixed at 1)",
      "miss rates scale with service CV; the UD >> DIV-1 >= GF ordering is"
      " distribution-robust",
      base);

  struct Case {
    const char* label;
    const char* dist;
    double cv;
  };
  const Case cases[] = {
      {"deterministic (CV=0)", "deterministic", 0.0},
      {"uniform[0,2] (CV=.58)", "uniform", 0.0},
      {"exponential (CV=1, paper)", "exponential", 0.0},
      {"hyperexp (CV=2)", "hyperexp", 2.0},
      {"hyperexp (CV=4)", "hyperexp", 4.0},
  };
  util::Table table({"service dist", "MD_local(ud)", "MD_global(ud)",
                     "MD_global(div-1)", "MD_global(gf)"});
  for (const Case& kase : cases) {
    std::vector<std::string> row{kase.label};
    for (const char* psp : {"ud", "div-1", "gf"}) {
      exp::ExperimentConfig c = base;
      c.service_dist = kase.dist;
      if (kase.cv > 0.0) c.service_cv = kase.cv;
      c.psp = psp;
      const metrics::Report report = exp::run_experiment(c);
      if (std::string(psp) == "ud") {
        row.push_back(util::fmt_pct(
            report.summary(metrics::kLocalClass).miss_rate.mean));
      }
      row.push_back(util::fmt_pct(
          report.summary(metrics::global_class(4)).miss_rate.mean));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}
