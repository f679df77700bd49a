// Ablation A10 — communication as an explicit resource (§3.2).
//
// The paper folds the network into the node model ("a direct link between
// two sites is one resource, a LAN another") but its experiments never
// give messages their own queues.  Here the Figure 14 pipeline ships a
// message subtask between consecutive stages over 0/1/2 shared link nodes.
// With one shared link, every global task in the system funnels its four
// stage boundaries through the same queue — a contention point that makes
// end-to-end deadline assignment matter even more; a second link relieves
// it.  EQF treats message legs like any other stage (they get slack in
// proportion to their predicted time).
#include "bench/common.hpp"

int bench::driver(int argc, char** argv) {
  using namespace sda;
  exp::ExperimentConfig base = exp::graph_config();
  base.load = 0.5;
  base.mean_msg_time = 0.25;
  bench::apply_kv_args(argc, argv, base);

  bench::print_header(
      "Ablation A10 — explicit link resources on the Fig 14 graph (load 0.5)",
      "message queueing adds misses; EQF-DIV1 keeps its lead; a second link"
      " relieves the contention",
      base);

  util::Table table({"links", "SDA", "MD_local", "MD_global", "link util"});
  for (int links : {0, 1, 2}) {
    for (const auto& [label, psp, ssp] :
         {std::tuple{"UD-UD", "ud", "ud"},
          std::tuple{"EQF-DIV1", "div-1", "eqf"}}) {
      exp::ExperimentConfig c = base;
      c.link_count = links;
      c.psp = psp;
      c.ssp = ssp;
      metrics::Report report;
      double link_util = 0.0;
      for (int rep = 0; rep < c.replications; ++rep) {
        exp::RunResult r = exp::run_once(c, exp::replication_seed(c.seed, rep));
        link_util += r.mean_link_utilization;
        report.add_replication(r.collector);
      }
      link_util /= c.replications;
      table.add_row(
          {std::to_string(links), label,
           util::fmt_pct(report.summary(metrics::kLocalClass).miss_rate.mean),
           util::fmt_pct(
               report.summary(metrics::global_class(0)).miss_rate.mean),
           util::fmt_pct(link_util)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}
