// Ablation A8 — what if placement were free?
//
// The paper's premise is that subtasks are pinned ("no load balancing").
// This ablation relaxes that premise: parallel subtasks are placed on the
// currently least-queued nodes instead of uniformly at random.  It measures
// how much of the PSP pain is placement-induced queueing versus intrinsic
// max-of-n fan-in — and whether deadline assignment still adds value on top
// of good placement.
#include "bench/common.hpp"

int bench::driver(int argc, char** argv) {
  using namespace sda;
  exp::ExperimentConfig base = exp::baseline_config();
  base.load = 0.6;
  bench::apply_kv_args(argc, argv, base);

  bench::print_header(
      "Ablation A8 — uniform vs least-queued subtask placement (load 0.6)",
      "extension beyond the paper: good placement lowers MD_global on its"
      " own, but deadline assignment still helps on top",
      base);

  util::Table table({"placement", "strategy", "MD_local", "MD_global",
                     "MD_subtask"});
  for (const char* placement : {"uniform", "least-queued"}) {
    for (const char* psp : {"ud", "div-1", "gf"}) {
      exp::ExperimentConfig c = base;
      c.placement = placement;
      c.psp = psp;
      const metrics::Report report = exp::run_experiment(c);
      table.add_row(
          {placement, psp,
           util::fmt_pct(report.summary(metrics::kLocalClass).miss_rate.mean),
           util::fmt_pct(
               report.summary(metrics::global_class(4)).miss_rate.mean),
           util::fmt_pct(
               report.summary(metrics::kSubtaskClass).miss_rate.mean)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}
