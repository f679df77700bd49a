// Validation V1 — analytic predictor vs simulation.
//
// The core::predict_miss planning tool approximates each node as M/M/1 and
// each leaf's completion as independent.  This bench quantifies the gap for
// UD across load and across n:
//  * shape must track (monotone in load, amplified by n);
//  * under UD the prediction should land in the right ballpark (it ignores
//    EDF's reordering, which cuts both ways);
//  * the bench prints both so EXPERIMENTS.md can state the observed bias
//    honestly.
#include <cmath>

#include "bench/common.hpp"

#include "src/core/analysis.hpp"
#include "src/core/predictor.hpp"
#include "src/task/builder.hpp"

namespace {

// Expected-case task: n parallel subtasks with the mean demand (1.0) and
// the mean deadline allowance E[max ex] + mean slack (Equation 2).
double predicted_global_miss(int n, double load) {
  using namespace sda;
  auto builder = task::parallel();
  for (int i = 0; i < n; ++i) builder.leaf(i, 1.0, 1.0);
  const task::TreePtr tree = builder.build();
  const double allowance =
      core::analysis::expected_max_exponential(n, 1.0) + (1.25 + 5.0) / 2.0;
  const auto psp = core::make_psp_strategy("ud");
  const auto ssp = core::make_ssp_strategy("ud");
  return core::predict_miss(*tree, 0.0, allowance, *psp, *ssp,
                            core::NodeModel{load, 1.0})
      .miss_probability;
}

}  // namespace

int bench::driver(int argc, char** argv) {
  using namespace sda;
  exp::ExperimentConfig base = exp::baseline_config();
  bench::apply_kv_args(argc, argv, base);

  bench::print_header(
      "Validation V1 — analytic predictor vs simulation (UD)",
      "M/M/1 + independence approximation should track the simulated"
      " MD_global's shape in load and n",
      base);

  util::Table table({"load", "n", "predicted MD_global",
                     "simulated MD_global", "ratio"});
  for (double load : {0.3, 0.5, 0.7}) {
    for (int n : {2, 4, 6}) {
      exp::ExperimentConfig c = base;
      c.load = load;
      c.n_min = c.n_max = n;
      const metrics::Report report = exp::run_experiment(c);
      const double simulated =
          report.summary(metrics::global_class(n)).miss_rate.mean;
      const double predicted = predicted_global_miss(n, load);
      table.add_row({util::fmt(load, 1), std::to_string(n),
                     util::fmt_pct(predicted), util::fmt_pct(simulated),
                     util::fmt(simulated > 0 ? predicted / simulated : 0.0,
                               2)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("(expected-case prediction uses the mean allowance; the\n"
              "simulation averages over random demands and slacks, so a\n"
              "constant-factor bias is expected — the shape is the point.)\n");
  return 0;
}
