// Companion study [6] — the Serial Subtask Problem on its own.
//
// Section 8 summarizes the companion paper (Kao & Garcia-Molina, ICDCS'93):
// EQF significantly beats UD for purely *serial* global tasks, and the
// improvement is "particularly marked" when (1) the task has a non-trivial
// number of stages (> 3) and (2) there is sufficient slack (MD_global under
// UD below ~50%).  This bench reproduces that inside this repo: pure serial
// pipelines with 2..8 stages under UD / ED / EQS / EQF, at two slack
// levels.
#include "bench/common.hpp"

namespace {

sda::exp::ExperimentConfig pipeline_config(sda::exp::ExperimentConfig c,
                                           int stages, double slack_scale) {
  c.stage_widths.assign(static_cast<std::size_t>(stages), 1);
  // Global slack scales with the pipeline length (as §8 scales Figure 14's
  // by 5); slack_scale < 1 tightens it.
  c.global_slack_min = 1.25 * stages * slack_scale;
  c.global_slack_max = 5.0 * stages * slack_scale;
  return c;
}

}  // namespace

int bench::driver(int argc, char** argv) {
  using namespace sda;
  exp::ExperimentConfig base = exp::graph_config();
  base.load = 0.6;
  bench::apply_kv_args(argc, argv, base);
  const exp::ExperimentConfig header = pipeline_config(base, 5, 1.0);

  bench::print_header(
      "Companion study [6] — SSP strategies on pure serial pipelines "
      "(load 0.6)",
      "EQF >> UD for serial tasks; improvement marked for > 3 stages with"
      " sufficient slack; ED/EQS sit between",
      header);

  for (double slack_scale : {1.0, 0.5}) {
    std::printf("--- slack %s (U[%.2f, %.1f] per 5-stage task) ---\n",
                util::feq(slack_scale, 1.0) ? "ample (scaled by stages)"
                                            : "tight (half)",
                1.25 * 5 * slack_scale, 5.0 * 5 * slack_scale);
    util::Table table({"stages", "MD_glb(UD)", "MD_glb(ED)", "MD_glb(EQS)",
                       "MD_glb(EQF)", "MD_local(EQF)"});
    for (int stages : {2, 3, 5, 8}) {
      std::vector<std::string> row{std::to_string(stages)};
      std::string local_eqf;
      for (const char* ssp : {"ud", "ed", "eqs", "eqf"}) {
        exp::ExperimentConfig c = pipeline_config(base, stages, slack_scale);
        c.ssp = ssp;
        const metrics::Report report = exp::run_experiment(c);
        row.push_back(util::fmt_pct(
            report.summary(metrics::global_class(0)).miss_rate.mean));
        if (std::string(ssp) == "eqf") {
          local_eqf = util::fmt_pct(
              report.summary(metrics::kLocalClass).miss_rate.mean);
        }
      }
      row.push_back(local_eqf);
      table.add_row(std::move(row));
    }
    std::printf("%s\n", table.render().c_str());
  }
  std::printf("([6]'s shape: the UD-vs-EQF gap should widen with stage count"
              " and be larger in the ample-slack regime.)\n");
  return 0;
}
