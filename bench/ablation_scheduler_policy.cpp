// Ablation A5 — substrate scheduling policy: EDF vs FIFO vs SPT.
//
// The SDA strategies act purely through the deadlines they present to the
// local schedulers.  Under FIFO or SPT, deadlines are ignored, so UD, DIV-1
// and GF must coincide (up to identical arrival streams they are *exactly*
// the same system) — confirming the paper's improvements come from nodes
// honoring deadlines, not from the process manager's bookkeeping.
#include "bench/common.hpp"

int bench::driver(int argc, char** argv) {
  using namespace sda;
  exp::ExperimentConfig base = exp::baseline_config();
  base.load = 0.6;
  bench::apply_kv_args(argc, argv, base);

  bench::print_header(
      "Ablation A5 — scheduler policy substrate (load 0.6)",
      "FIFO/SPT ignore deadlines: all PSP strategies coincide there; EDF is"
      " what makes deadline assignment matter",
      base);

  util::Table table({"policy", "MD_global(ud)", "MD_global(div-1)",
                     "MD_global(gf)", "MD_local(ud)"});
  for (const char* policy : {"edf", "fifo", "spt"}) {
    std::vector<std::string> row{policy};
    double local_ud = 0.0;
    for (const char* psp : {"ud", "div-1", "gf"}) {
      exp::ExperimentConfig c = base;
      c.scheduler_policy = policy;
      c.psp = psp;
      const metrics::Report report = exp::run_experiment(c);
      row.push_back(util::fmt_pct(
          report.summary(metrics::global_class(4)).miss_rate.mean));
      if (std::string(psp) == "ud") {
        local_ud = report.summary(metrics::kLocalClass).miss_rate.mean;
      }
    }
    row.push_back(util::fmt_pct(local_ud));
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}
