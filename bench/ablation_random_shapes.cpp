// Ablation A12 — shape robustness: random serial-parallel global tasks.
//
// The paper evaluates flat parallel tasks (Sections 4-7) and one fixed
// pipeline (Section 8).  Here every global task has a *different* random
// serial-parallel shape (depth <= 3, fan-out 2-4).  If UD >> DIV-1 >= GF
// and the EQF+DIV combination hold here too, the heuristics are shape-
// robust, not tuned to the paper's two workloads.
//
// This bench assembles the system manually (the Runner's workload menu does
// not include random shapes) — also demonstrating the library's composition
// API end to end.
#include <memory>

#include "bench/common.hpp"

#include "src/sched/node.hpp"
#include "src/workload/global_source.hpp"
#include "src/workload/local_source.hpp"
#include "src/workload/rates.hpp"

namespace {

using namespace sda;

struct Outcome {
  double md_local = 0.0;
  double md_global = 0.0;
};

Outcome run(const char* psp, const char* ssp, double load,
            const util::BenchEnv& env) {
  sim::Engine engine;
  util::Rng master(env.seed);
  constexpr int kNodes = 6;

  std::vector<std::unique_ptr<sched::Node>> nodes;
  std::vector<sched::Node*> ptrs;
  for (int i = 0; i < kNodes; ++i) {
    sched::Node::Config nc;
    nc.index = i;
    nodes.push_back(std::make_unique<sched::Node>(engine, nc));
    ptrs.push_back(nodes.back().get());
  }
  core::ProcessManager::Config pc;
  pc.psp = core::make_psp_strategy(psp);
  pc.ssp = core::make_ssp_strategy(ssp);
  core::ProcessManager pm(engine, ptrs, std::move(pc));

  metrics::Collector collector;
  collector.set_warmup(env.warmup_fraction * env.sim_time);
  pm.set_global_handler(
      [&](const core::GlobalTaskRecord& r) { collector.record_global(r); });
  for (auto& n : nodes) {
    n->set_outcome_handler(
        [&](const task::TaskPtr& t, sched::Node::Outcome o) {
          if (t->kind == task::TaskKind::kLocal) {
            collector.record_simple(*t);
          } else {
            pm.handle_outcome(t, o);
          }
        });
  }

  // Calibrate the random shape's mean work on a stream of its own and
  // feed it into the load equations so the offered load is exactly `load`.
  const workload::RandomShape shape{};
  util::Rng calibration = master.split().split();
  workload::RateParams rp;
  rp.k = kNodes;
  rp.load = load;
  rp.frac_local = 0.75;
  rp.expected_global_work = workload::mean_total_ex(shape, calibration);
  const workload::Rates rates = workload::solve_rates(rp);

  std::vector<std::unique_ptr<workload::LocalSource>> locals;
  for (int i = 0; i < kNodes; ++i) {
    workload::LocalSource::Config lc;
    lc.lambda = rates.lambda_local;
    lc.id_base = (static_cast<std::uint64_t>(i) + 1) << 40;
    locals.push_back(std::make_unique<workload::LocalSource>(
        engine, *nodes[static_cast<std::size_t>(i)], collector,
        master.split(), lc));
    locals.back()->start();
  }
  workload::GlobalSource::Config gc;
  gc.lambda = rates.lambda_global;
  gc.slack_min = 2.5;  // random shapes average ~2 serial levels
  gc.slack_max = 10.0;
  workload::GlobalSource globals(engine, pm, master.split(), gc, shape);
  globals.start();

  engine.run_until(env.sim_time);
  Outcome out;
  out.md_local = collector.counts(metrics::kLocalClass).miss_rate();
  out.md_global = collector.counts(metrics::global_class(0)).miss_rate();
  return out;
}

}  // namespace

int main() {
  using namespace sda;
  const util::BenchEnv env = util::bench_env();
  exp::ExperimentConfig header = exp::baseline_config();
  exp::figures::apply_bench_env(header, env);

  bench::print_header(
      "Ablation A12 — random serial-parallel shapes (depth <= 3, fan 2-4)",
      "shape-robustness: UD >> single strategies >> EQF-DIV1 should hold"
      " for arbitrary serial-parallel structure",
      header, env);

  util::Table table({"load", "SDA", "MD_local", "MD_global"});
  for (double load : {0.5, 0.6}) {
    for (const auto& [label, psp, ssp] :
         {std::tuple{"UD-UD", "ud", "ud"},
          std::tuple{"UD-DIV1", "div-1", "ud"},
          std::tuple{"EQF-UD", "ud", "eqf"},
          std::tuple{"EQF-DIV1", "div-1", "eqf"},
          std::tuple{"EQF-GF", "gf", "eqf"}}) {
      const Outcome o = run(psp, ssp, load, env);
      table.add_row({util::fmt(load, 1), label, util::fmt_pct(o.md_local),
                     util::fmt_pct(o.md_global)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}
