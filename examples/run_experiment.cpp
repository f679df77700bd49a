// General-purpose experiment driver: configure any system/workload/strategy
// combination from the command line, run it, and print per-class results
// (optionally exporting a load sweep as CSV).
//
// Examples:
//   run_experiment --psp div-1 --load 0.6
//   run_experiment --scenario stock-trading --ssp eqf --psp div-1
//   run_experiment --psp gf --sweep-load 0.3:0.9:7 --csv out.csv
//   run_experiment --k 8 --n 6 --frac-local 0.5 --pm-abort
//   run_experiment --help
#include <cstdio>
#include <exception>

#include "src/exp/csv.hpp"
#include "src/exp/runner.hpp"
#include "src/exp/sweep.hpp"
#include "src/metrics/task_class.hpp"
#include "src/util/flags.hpp"
#include "src/util/table.hpp"
#include "src/workload/scenarios.hpp"

namespace {

using namespace sda;

void print_usage() {
  std::printf(
      "usage: run_experiment [flags]\n"
      "  system:    --k N  --policy edf|fifo|spt|llf  --preemptive\n"
      "  strategy:  --psp ud|div-<x>|gf  --ssp ud|ed|eqs|eqf\n"
      "  abortion:  --pm-abort  --local-abort  --non-abortable\n"
      "  workload:  --load X  --frac-local X  --n N  --n-min A --n-max B\n"
      "             --scenario NAME  --placement uniform|least-queued\n"
      "             --exec-spread S  --pex-noise F  --burst B\n"
      "             --links L  --msg-time T   (scenario workloads only)\n"
      "             --service-dist exponential|deterministic|uniform|hyperexp\n"
      "             --service-cv CV            (hyperexp only)\n"
      "  run:       --sim-time T  --reps R  --seed S  --warmup F\n"
      "  sweep:     --sweep-load LO:HI:STEPS   --csv FILE\n"
      "  misc:      --scenarios (list)  --help\n");
}

std::vector<double> parse_sweep(const std::string& spec) {
  // "lo:hi:steps"
  const auto c1 = spec.find(':');
  const auto c2 = spec.find(':', c1 + 1);
  if (c1 == std::string::npos || c2 == std::string::npos) {
    throw std::invalid_argument("--sweep-load wants LO:HI:STEPS");
  }
  const double lo = std::stod(spec.substr(0, c1));
  const double hi = std::stod(spec.substr(c1 + 1, c2 - c1 - 1));
  const int steps = std::stoi(spec.substr(c2 + 1));
  return exp::linspace(lo, hi, steps);
}

void print_report(const metrics::Report& report) {
  util::Table table({"class", "MD", "missed work", "finished"});
  for (int cls : report.classes()) {
    const metrics::ClassSummary s = report.summary(cls);
    table.add_row({metrics::default_class_name(cls),
                   s.miss_rate.n >= 2
                       ? util::fmt_pct_ci(s.miss_rate.mean,
                                          s.miss_rate.half_width)
                       : util::fmt_pct(s.miss_rate.mean),
                   util::fmt_pct(s.missed_work_rate.mean),
                   std::to_string(s.finished_total)});
  }
  std::printf("%s", table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Flags flags(argc, argv);
    if (flags.has("help")) {
      print_usage();
      return 0;
    }
    if (flags.has("scenarios")) {
      for (const auto& s : workload::scenarios()) {
        std::printf("%-14s %s\n", s.name.c_str(), s.description.c_str());
      }
      return 0;
    }

    exp::ExperimentConfig c = exp::baseline_config();
    c.k = static_cast<int>(flags.get_int("k", c.k));
    c.scheduler_policy = flags.get_string("policy", c.scheduler_policy);
    c.preemptive = flags.get_bool("preemptive", c.preemptive);
    c.psp = flags.get_string("psp", c.psp);
    c.ssp = flags.get_string("ssp", c.ssp);
    if (flags.get_bool("pm-abort")) {
      c.pm_abort = core::PmAbortMode::kRealDeadline;
    }
    if (flags.get_bool("local-abort")) {
      c.local_abort = sched::LocalAbortPolicy::kAbortOnVirtualDeadline;
    }
    c.subtasks_non_abortable = flags.get_bool("non-abortable");
    c.load = flags.get_double("load", c.load);
    c.frac_local = flags.get_double("frac-local", c.frac_local);
    if (flags.has("n")) {
      c.n_min = c.n_max = static_cast<int>(flags.get_int("n", c.n_min));
    }
    c.n_min = static_cast<int>(flags.get_int("n-min", c.n_min));
    c.n_max = static_cast<int>(flags.get_int("n-max", c.n_max));
    if (flags.has("scenario")) {
      const workload::Scenario& s =
          workload::find_scenario(flags.get_string("scenario"));
      c.global_kind = exp::GlobalKind::kGraph;
      c.stage_widths = s.stage_widths;
    }
    c.placement = flags.get_string("placement", c.placement);
    c.subtask_exec_spread =
        flags.get_double("exec-spread", c.subtask_exec_spread);
    c.local_burst_factor = flags.get_double("burst", c.local_burst_factor);
    c.link_count = static_cast<int>(flags.get_int("links", c.link_count));
    c.mean_msg_time = flags.get_double("msg-time", c.mean_msg_time);
    c.service_dist = flags.get_string("service-dist", c.service_dist);
    c.service_cv = flags.get_double("service-cv", c.service_cv);
    if (flags.has("pex-noise")) {
      c.pex = workload::PexModel::log_uniform(
          flags.get_double("pex-noise", 2.0));
    }
    c.sim_time = flags.get_double("sim-time", c.sim_time);
    c.replications = static_cast<int>(flags.get_int("reps", c.replications));
    c.seed = static_cast<std::uint64_t>(
        flags.get_int("seed", static_cast<std::int64_t>(c.seed)));
    c.warmup_fraction = flags.get_double("warmup", c.warmup_fraction);

    const std::string sweep_spec = flags.get_string("sweep-load");
    const std::string csv_path = flags.get_string("csv");

    for (const std::string& flag : flags.unused()) {
      std::fprintf(stderr, "warning: unknown flag --%s (see --help)\n",
                   flag.c_str());
    }

    // Fail fast with every problem listed, not just the first.
    const auto problems = c.validate();
    if (!problems.empty()) {
      for (const auto& p : problems) {
        std::fprintf(stderr, "config error: %s\n", p.c_str());
      }
      return 2;
    }

    std::printf("system: %s\n\n", c.describe().c_str());
    if (sweep_spec.empty()) {
      print_report(exp::run_experiment(c));
      return 0;
    }

    const auto loads = parse_sweep(sweep_spec);
    const auto points = exp::sweep(
        c, loads, [](exp::ExperimentConfig& cfg, double l) { cfg.load = l; });
    for (const auto& p : points) {
      std::printf("== load %.3f ==\n", p.x);
      print_report(p.report);
      std::printf("\n");
    }
    if (!csv_path.empty()) {
      const std::string csv = exp::sweep_to_csv(points, "load");
      if (exp::write_text_file(csv_path, csv)) {
        std::printf("wrote %s\n", csv_path.c_str());
      } else {
        std::fprintf(stderr, "error: cannot write %s\n", csv_path.c_str());
        return 1;
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
