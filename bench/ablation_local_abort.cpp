// Ablation A1 — local-scheduler abortion (paper §7.3, "results not shown").
//
// When nodes abort any task whose *virtual* deadline passes:
//  * GF is inapplicable (every subtask's virtual deadline is already in the
//    past on arrival; it would be aborted immediately and resubmitted with
//    its real deadline, turning GF into UD-with-overhead);
//  * DIV-x performs poorly (the paper's headline finding): aborted subtasks
//    lose their invested service and return with their slack mostly burned.
//    Note a nuance our resubmission model exposes: moderate x (DIV-1) is
//    the *worst* point — subtasks run long enough to waste real work before
//    the abort.  Very large x aborts before any service is invested, which
//    degenerates toward UD-with-overhead rather than getting still worse;
//  * marking subtasks non-abortable ("special directives") restores DIV-1's
//    no-abort behaviour.
#include "bench/common.hpp"

int bench::driver(int argc, char** argv) {
  using namespace sda;
  exp::ExperimentConfig base = exp::baseline_config();
  base.local_abort = sched::LocalAbortPolicy::kAbortOnVirtualDeadline;
  base.load = 0.6;  // "moderate to tight environment"
  bench::apply_kv_args(argc, argv, base);

  bench::print_header(
      "Ablation A1 — abortion by local schedulers (paper §7.3)",
      "DIV-x performs poorly under local aborts, worse for bigger x;"
      " non-abortable directives fix it",
      base);

  util::Table table({"strategy", "MD_local", "MD_global", "resubmissions/run",
                     "local aborts"});
  struct Case {
    const char* label;
    const char* psp;
    bool non_abortable;
  };
  const Case cases[] = {
      {"ud", "ud", false},
      {"div-1", "div-1", false},
      {"div-4", "div-4", false},
      {"div-16", "div-16", false},
      {"div-1 + non-abortable", "div-1", true},
      {"gf + non-abortable", "gf", true},
  };
  for (const Case& kase : cases) {
    exp::ExperimentConfig c = base;
    c.psp = kase.psp;
    c.subtasks_non_abortable = kase.non_abortable;
    // Aggregate diagnostics over replications by hand (we need resubmission
    // counts, which Reports do not carry).
    metrics::Report report;
    double resub = 0.0, aborts = 0.0, globals = 0.0;
    for (int rep = 0; rep < c.replications; ++rep) {
      exp::RunResult r = exp::run_once(c, exp::replication_seed(c.seed, rep));
      resub += static_cast<double>(r.resubmissions);
      aborts += static_cast<double>(r.local_scheduler_aborts);
      globals += static_cast<double>(r.globals_generated);
      report.add_replication(r.collector);
    }
    table.add_row(
        {kase.label,
         util::fmt_pct(report.summary(metrics::kLocalClass).miss_rate.mean),
         util::fmt_pct(report.summary(metrics::global_class(4)).miss_rate.mean),
         util::fmt(globals > 0 ? resub / globals : 0.0, 2),
         util::fmt(aborts, 0)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("note: plain GF is omitted without directives — its virtual\n"
              "deadlines are pre-expired by construction, so every subtask\n"
              "would be aborted on arrival (the paper calls GF inapplicable\n"
              "here).\n");
  return 0;
}
