// General-purpose experiment driver: configure any system/workload/strategy
// combination from the command line, run it, and print per-class results
// (optionally exporting a load sweep as CSV).  Config fields are set as
// key=value, through the same ExperimentConfig::set front door as sda_run:
// an unknown key or an unparsable value is an error, not a default.
//
// Examples:
//   run_experiment psp=div-1 load=0.6
//   run_experiment --scenario stock-trading ssp=eqf psp=div-1
//   run_experiment psp=gf --sweep-load 0.3:0.9:7 --csv out.csv
//   run_experiment k=8 n_min=6 n_max=6 frac_local=0.5 pm_abort=real-deadline
//   run_experiment --help
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/exp/csv.hpp"
#include "src/exp/runner.hpp"
#include "src/exp/sweep.hpp"
#include "src/metrics/task_class.hpp"
#include "src/util/table.hpp"
#include "src/workload/scenarios.hpp"

namespace {

using namespace sda;

void print_usage() {
  std::printf(
      "usage: run_experiment [key=value ...] [flags]\n"
      "  key=value                  set a config field, e.g. psp=gf load=0.9\n"
      "                             reps=1 (`sda_run --list-keys` lists them)\n"
      "  --scenario NAME            graph workload shaped like a scenario\n"
      "  --sweep-load LO:HI:STEPS   sweep the load, one report per point\n"
      "  --csv FILE                 also write the sweep as CSV\n"
      "  --scenarios                list the scenarios\n"
      "  --help                     this text\n");
}

std::vector<double> parse_sweep(const std::string& spec) {
  // "lo:hi:steps"; each part must parse whole ("0.3x" is an error, not 0.3).
  const auto c1 = spec.find(':');
  const auto c2 = spec.find(':', c1 + 1);
  if (c1 == std::string::npos || c2 == std::string::npos) {
    throw std::invalid_argument("--sweep-load wants LO:HI:STEPS");
  }
  const auto whole = [&](std::size_t used, std::size_t from, std::size_t to) {
    if (used != to - from) {
      throw std::invalid_argument("--sweep-load: cannot parse '" + spec + "'");
    }
  };
  std::size_t used = 0;
  const double lo = std::stod(spec.substr(0, c1), &used);
  whole(used, 0, c1);
  const double hi = std::stod(spec.substr(c1 + 1, c2 - c1 - 1), &used);
  whole(used, c1 + 1, c2);
  const int steps = std::stoi(spec.substr(c2 + 1), &used);
  whole(used, c2 + 1, spec.size());
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
    exp::ExperimentConfig c = exp::baseline_config();
    std::vector<double> loads;  // empty: a single run, no sweep
    std::string csv_path;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--help") {
        print_usage();
        return 0;
      } else if (arg == "--scenarios") {
        for (const auto& s : workload::scenarios()) {
          std::printf("%-14s %s\n", s.name.c_str(), s.description.c_str());
        }
        return 0;
      } else if (arg == "--scenario") {
        const workload::Scenario& s = workload::find_scenario(value());
        c.global_kind = exp::GlobalKind::kGraph;
        c.stage_widths = s.stage_widths;
      } else if (arg == "--sweep-load") {
        loads = parse_sweep(value());
      } else if (arg == "--csv") {
        csv_path = value();
      } else {
        const std::size_t eq = arg.find('=');
        if (eq == std::string::npos || eq == 0) {
          throw std::invalid_argument("unknown argument '" + arg +
                                      "' (see --help)");
        }
        std::string key = arg.substr(0, eq);
        if (key == "reps") key = "replications";  // sda_run's one shorthand
        c.set(key, arg.substr(eq + 1));
      }
    }
    if (!csv_path.empty() && loads.empty()) {
      throw std::invalid_argument("--csv writes a sweep: add --sweep-load");
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
    if (loads.empty()) {
      print_report(exp::run_experiment(c));
      return 0;
    }

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
