// In-text numeric anchors (paper §6.1 and §7.3), all at the baseline
// setting, load 0.5.  This bench regenerates every number the paper states
// in prose and prints measured-vs-paper side by side:
//
//   §6.1  UD:    MD_local 8.9%,  MD_subtask 7.1%,  MD_global 25%
//         1-(1-0.071)^4 = 25.5% (independence approximation)
//         DIV-1: MD_local 11.7%, MD_global 13%
//         missed work: UD 0.13 -> DIV-1 0.12
//   §7.3  with PM abortion: MD_global UD 15.0%, DIV-1 7.8%
//   §4    example: 5% node miss rate, 6 subtasks -> 26.5% global miss
#include <cmath>

#include "bench/common.hpp"

int bench::driver(int argc, char** argv) {
  using namespace sda;
  exp::ExperimentConfig base = exp::baseline_config();
  base.load = 0.5;
  bench::apply_kv_args(argc, argv, base);

  bench::print_header("In-text checks — every number the paper states in prose",
                      "see header comment; all at baseline, load 0.5", base);

  // --- §6.1, no abortion ---------------------------------------------------
  exp::ExperimentConfig c = base;
  c.psp = "ud";
  const metrics::Report ud = exp::run_experiment(c);
  c.psp = "div-1";
  const metrics::Report div1 = exp::run_experiment(c);

  const double ud_local = ud.summary(metrics::kLocalClass).miss_rate.mean;
  const double ud_sub = ud.summary(metrics::kSubtaskClass).miss_rate.mean;
  const double ud_glob = ud.summary(metrics::global_class(4)).miss_rate.mean;
  std::printf("no abortion (Figures 5-7):\n");
  bench::check_line("MD_local(UD)", ud_local, 0.089);
  bench::check_line("MD_subtask(UD)", ud_sub, 0.071);
  bench::check_line("MD_global(UD)", ud_glob, 0.25);
  bench::check_line("independence approx 1-(1-MD_subtask)^4",
                    1.0 - std::pow(1.0 - ud_sub, 4.0), 0.255);
  bench::check_line("MD_local(DIV-1)",
                    div1.summary(metrics::kLocalClass).miss_rate.mean, 0.117);
  bench::check_line("MD_global(DIV-1)",
                    div1.summary(metrics::global_class(4)).miss_rate.mean,
                    0.13);
  std::printf("  %-52s measured %6.3f    paper ~0.130\n",
              "missed work fraction (UD)", ud.overall_missed_work().mean);
  std::printf("  %-52s measured %6.3f    paper ~0.120\n",
              "missed work fraction (DIV-1)", div1.overall_missed_work().mean);

  // --- §7.3, process-manager abortion ---------------------------------------
  c = base;
  c.pm_abort = core::PmAbortMode::kRealDeadline;
  c.psp = "ud";
  const metrics::Report ud_ab = exp::run_experiment(c);
  c.psp = "div-1";
  const metrics::Report div1_ab = exp::run_experiment(c);
  std::printf("with process-manager abortion (Figure 11):\n");
  bench::check_line("MD_global(UD, pm-abort)",
                    ud_ab.summary(metrics::global_class(4)).miss_rate.mean,
                    0.15);
  bench::check_line("MD_global(DIV-1, pm-abort)",
                    div1_ab.summary(metrics::global_class(4)).miss_rate.mean,
                    0.078);

  // --- §4's motivating arithmetic (pure math, no simulation) ---------------
  std::printf("motivating example (§4): 1-(1-0.05)^6 = %.1f%% (paper 26.5%%)\n",
              (1.0 - std::pow(0.95, 6.0)) * 100.0);
  return 0;
}
