// Ablation A13 — fault injection and deadline-aware recovery.
//
// The paper's system model is fail-free: the only failure mode is a missed
// deadline.  This ablation adds the fault layer (src/fault/) and asks how
// the deadline-assignment strategies degrade when subtask attempts can die
// partway, and how much the recovery policy matters:
//
//   none   retries disabled — the first fault sheds the whole global task;
//   stale  bounded retries that reuse the original virtual deadline.  The
//          deadline reflects slack that no longer exists, so an expired
//          one jumps every EDF queue it meets, and doomed runs keep
//          burning service to the end;
//   sda    bounded retries that re-run the SDA assignment over the
//          unfinished remainder with the slack left at retry time, and
//          shed runs whose remaining critical path no longer fits.
//
// Expected shape: MD_global grows with the failure rate under every
// policy, but `sda` degrades the most gracefully — honest deadlines keep
// the EDF ordering meaningful and shedding stops paying for lost causes —
// while `none` converts every fault into a dead run.  The strategy
// ordering of Figures 5-7 (GF < DIV-1 < UD) survives moderate fault rates.
#include "bench/common.hpp"

namespace {

using namespace sda;

struct Policy {
  const char* label;
  int max_retries;
  const char* deadline;  // "stale" | "sda"
  bool shed;
};

constexpr Policy kPolicies[] = {
    {"none", 0, "stale", false},
    {"stale", 4, "stale", false},
    {"sda", 4, "sda", true},
};

exp::ExperimentConfig with_policy(exp::ExperimentConfig c, const Policy& p) {
  c.max_retries_per_run = p.max_retries;
  c.retry_deadline = p.deadline;
  c.shed_negative_slack = p.shed;
  return c;
}

struct Cell {
  double md_global = 0.0;
  double retries_per_run = 0.0;
  double shed_fraction = 0.0;
};

Cell measure(const exp::ExperimentConfig& c) {
  metrics::Report report;
  std::uint64_t globals = 0, shed = 0, retries = 0;
  for (int rep = 0; rep < c.replications; ++rep) {
    exp::RunResult r = exp::run_once(c, exp::replication_seed(c.seed, rep));
    report.add_replication(r.collector);
    globals += r.globals_completed + r.globals_aborted;
    shed += r.globals_shed;
    retries += r.fault_retries;
  }
  Cell cell;
  cell.md_global =
      report.summary(metrics::global_class(c.n_max)).miss_rate.mean;
  if (globals > 0) {
    cell.retries_per_run =
        static_cast<double>(retries) / static_cast<double>(globals);
    cell.shed_fraction =
        static_cast<double>(shed) / static_cast<double>(globals);
  }
  return cell;
}

}  // namespace

int bench::driver(int argc, char** argv) {
  exp::ExperimentConfig base = exp::baseline_config();
  base.load = 0.6;
  base.psp = "div-1";
  bench::apply_kv_args(argc, argv, base);

  bench::print_header(
      "Ablation A13 — transient faults x recovery policy (DIV-1, load 0.6)",
      "SDA-recomputed retry deadlines degrade most gracefully; stale"
      " deadlines poison the EDF ordering; no recovery sheds every victim",
      base);

  const double fault_rates[] = {0.0, 0.02, 0.05, 0.10};

  util::Table policy_table({"fault_rate", "MD(none)", "MD(stale)", "MD(sda)",
                            "retries/run(sda)", "shed(sda)"});
  for (double rate : fault_rates) {
    std::vector<std::string> row{util::fmt(rate, 2)};
    Cell sda_cell;
    for (const Policy& p : kPolicies) {
      exp::ExperimentConfig c = with_policy(base, p);
      c.fault_rate = rate;
      const Cell cell = measure(c);
      row.push_back(util::fmt_pct(cell.md_global));
      if (std::string(p.label) == "sda") sda_cell = cell;
    }
    row.push_back(util::fmt(sda_cell.retries_per_run, 2));
    row.push_back(util::fmt_pct(sda_cell.shed_fraction));
    policy_table.add_row(row);
  }
  std::printf("%s\n", policy_table.render().c_str());

  // Strategy degradation under the sda recovery policy: the fail-free
  // ordering UD > DIV-1 > GF (Figures 5-7) should survive moderate rates.
  util::Table strat_table(
      {"fault_rate", "MD(UD)", "MD(DIV-1)", "MD(GF)"});
  for (double rate : fault_rates) {
    std::vector<std::string> row{util::fmt(rate, 2)};
    for (const char* psp : {"ud", "div-1", "gf"}) {
      exp::ExperimentConfig c = with_policy(base, kPolicies[2]);
      c.psp = psp;
      c.fault_rate = rate;
      row.push_back(util::fmt_pct(measure(c).md_global));
    }
    strat_table.add_row(row);
  }
  std::printf("%s\n", strat_table.render().c_str());

  // Node crashes instead of per-attempt faults: outages take a whole
  // server away, so failover is what matters most.
  util::Table crash_table({"mean uptime", "MD(none)", "MD(stale)", "MD(sda)"});
  for (double uptime : {4000.0, 2000.0, 1000.0}) {
    std::vector<std::string> row{util::fmt(uptime, 0)};
    for (const Policy& p : kPolicies) {
      exp::ExperimentConfig c = with_policy(base, p);
      c.crash_mean_uptime = uptime;
      c.crash_mean_downtime = 25.0;
      row.push_back(util::fmt_pct(measure(c).md_global));
    }
    crash_table.add_row(row);
  }
  std::printf("%s\n", crash_table.render().c_str());
  return 0;
}
