// The one-shot reproduction scorecard: every qualitative claim from the
// paper (orderings, crossovers, monotonicities) plus the §6.1/§7.3 numeric
// anchors, run as a single battery and printed as PASS/FAIL rows.
//
// Exit code is the number of failed checks, so this binary doubles as a CI
// gate for the whole reproduction.
//
// Run control is sda_run's key=value (`reproduce_all sim_time=50000
// replications=4`); the battery sets each check's strategy and swept
// variable on top of it.
//
// --quick: shortened runs (20k time units x 2 replications unless
// sim_time= says otherwise) for smoke tests and the scripts/run_bench.sh
// timing harness.  Quick runs are below the battery's calibrated tolerances
// (sim_time >= ~50k), so a handful of marginal FAILs is expected — use the
// default or `sim_time=1000000 replications=2` for actual validation.
#include <cstdio>
#include <cstring>

#include "bench/common.hpp"
#include "src/exp/compare.hpp"

int bench::driver(int argc, char** argv) {
  using namespace sda;
  exp::ExperimentConfig base = exp::baseline_config();

  // --quick only changes the default run length; sim_time= still wins.
  bool quick = false;
  int kv_argc = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strchr(argv[i], '=') != nullptr) {
      argv[kv_argc++] = argv[i];  // compact the key=value args in place
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [key=value ...]\n", argv[0]);
      return 64;
    }
  }
  if (quick) base.sim_time = 20000.0;
  bench::apply_kv_args(kv_argc, argv, base);
  if (quick) {
    std::printf("quick mode: timing/smoke run, below calibrated "
                "tolerances — expect marginal FAILs\n");
  }

  std::printf("reproduction scorecard (%s)\n\n",
              bench::describe_run(base).c_str());
  const auto card = sda::exp::compare::run_reproduction_battery(base);
  std::printf("%s", card.render().c_str());
  return static_cast<int>(card.failures());
}
