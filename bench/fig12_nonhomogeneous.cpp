// Figure 12: per-class MD when global tasks have n ~ U[2..6] parallel
// subtasks (six task classes: locals + five global sizes), at the baseline
// load, under UD / DIV-1 / GF.
//
// Shape to reproduce:
//  * under UD, MD grows steeply with n (n = 6 misses ~1/3 of deadlines,
//    ~4x the locals);
//  * DIV-1 levels all classes to roughly the same MD (its boost grows with
//    n automatically);
//  * GF pushes every global class below the locals.
#include "bench/common.hpp"

int bench::driver(int argc, char** argv) {
  using namespace sda;
  exp::ExperimentConfig base = exp::baseline_config();
  base.n_min = 2;
  base.n_max = 6;
  bench::apply_kv_args(argc, argv, base);

  bench::print_header(
      "Figure 12 — MD per task class, n ~ U[2..6] (UD vs DIV-1 vs GF)",
      "UD: MD grows with n (n=6 ~ 33%, ~4x locals); DIV-1 evens all classes"
      " out; GF drops globals below locals",
      base);

  util::Table table({"class", "MD(UD)", "MD(DIV-1)", "MD(GF)"});
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"local"});
  for (int n = 2; n <= 6; ++n) rows.push_back({"global n=" + std::to_string(n)});

  util::AsciiChart chart(60, 18);
  chart.set_labels("class (x=1: local, x=n: global size n)",
                   "fraction of missed deadlines");

  const char markers[] = {'U', 'D', 'G'};
  int mi = 0;
  for (const char* psp : {"ud", "div-1", "gf"}) {
    exp::ExperimentConfig c = base;
    c.psp = psp;
    const metrics::Report report = exp::run_experiment(c);
    util::Series s{std::string("MD ") + psp, markers[mi++], {}, {}};
    auto cell = [&](int cls) {
      const auto ci = report.summary(cls).miss_rate;
      return ci.n >= 2 ? util::fmt_pct_ci(ci.mean, ci.half_width)
                       : util::fmt_pct(ci.mean);
    };
    rows[0].push_back(cell(metrics::kLocalClass));
    s.xs.push_back(1.0);
    s.ys.push_back(report.summary(metrics::kLocalClass).miss_rate.mean);
    for (int n = 2; n <= 6; ++n) {
      rows[static_cast<std::size_t>(n - 1)].push_back(
          cell(metrics::global_class(n)));
      s.xs.push_back(static_cast<double>(n));
      s.ys.push_back(report.summary(metrics::global_class(n)).miss_rate.mean);
    }
    chart.add(std::move(s));
  }
  for (auto& row : rows) table.add_row(std::move(row));
  std::printf("%s\n", table.render().c_str());
  std::printf("%s\n", chart.render().c_str());
  return 0;
}
