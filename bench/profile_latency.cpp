// Latency profile — beyond miss *rates*, how late is late?
//
// The paper reports only missed-deadline fractions; this profile adds the
// response-time and tardiness distributions per task class under each PSP
// strategy.  Two effects worth seeing:
//  * DIV-x/GF shorten subtask queueing (that is the whole mechanism), so
//    global response times drop;
//  * local mean response rises only a little — the locals GF overtakes were
//    mostly doomed anyway (Figure 8's argument), but their tardiness tail
//    grows.
#include "bench/common.hpp"

#include "src/exp/runner.hpp"

int main() {
  using namespace sda;
  const util::BenchEnv env = util::bench_env();
  exp::ExperimentConfig base = exp::baseline_config();
  exp::figures::apply_bench_env(base, env);
  base.load = 0.6;

  bench::print_header(
      "Latency profile — response time and tardiness per class (load 0.6)",
      "DIV-1/GF shorten global response times; local tardiness tail grows"
      " slightly (Figure 8's L_earlier argument)",
      base, env);

  util::Table table({"strategy", "class", "mean resp", "max resp",
                     "mean tardy", "P90 tardy", "P99 tardy", "max tardy"});
  for (const char* psp : {"ud", "div-1", "gf"}) {
    exp::ExperimentConfig c = base;
    c.psp = psp;
    c.distributions = true;
    const exp::RunResult r = exp::run_once(c, env.seed);
    const struct {
      const char* label;
      int cls;
    } classes[] = {{"local", metrics::kLocalClass},
                   {"subtask", metrics::kSubtaskClass},
                   {"global", metrics::global_class(4)}};
    for (const auto& cls : classes) {
      const metrics::ClassTimings t = r.collector.timings(cls.cls);
      const metrics::DistributionSet* d =
          r.collector.class_distributions(cls.cls);
      const metrics::Quantiles q =
          d ? metrics::summarize(d->tardiness) : metrics::Quantiles{};
      table.add_row({psp, cls.label, util::fmt(t.response.mean(), 2),
                     util::fmt(t.response.max(), 1),
                     util::fmt(t.tardiness.mean(), 3), util::fmt(q.p90, 2),
                     util::fmt(q.p99, 2), util::fmt(t.tardiness.max(), 1)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}
