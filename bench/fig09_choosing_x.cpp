// Figure 9: MD under DIV-x as a function of x, for n in {2, 4, 6}.
//
// Shape to reproduce:
//  * every MD curve flattens as x grows;
//  * curves stabilize at smaller x for larger n (the n*x product is what
//    matters);
//  * n = 2 has essentially stabilized by x = 1, so x = 1 suffices.
#include "bench/common.hpp"

int bench::driver(int argc, char** argv) {
  using namespace sda;
  exp::ExperimentConfig base = exp::baseline_config();
  bench::apply_kv_args(argc, argv, base);

  bench::print_header(
      "Figure 9 — MD(DIV-x) as a function of x, for n = 2, 4, 6",
      "MD curves flatten as x grows; larger n stabilizes at smaller x;"
      " x = 1 is sufficient in practice",
      base);

  const std::vector<double> xs = {0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0};
  util::Table table({"x", "MD_loc(n=2)", "MD_glb(n=2)", "MD_loc(n=4)",
                     "MD_glb(n=4)", "MD_loc(n=6)", "MD_glb(n=6)"});
  util::AsciiChart chart(72, 22);
  chart.set_labels("x (DIV-x parameter)", "fraction of missed deadlines");

  std::vector<std::vector<std::string>> rows(xs.size());
  for (std::size_t r = 0; r < xs.size(); ++r) rows[r].push_back(util::fmt(xs[r], 2));

  const char markers[] = {'2', '4', '6'};
  int mi = 0;
  for (int n : {2, 4, 6}) {
    exp::ExperimentConfig c = base;
    c.n_min = c.n_max = n;
    auto points = exp::sweep(c, xs, [](exp::ExperimentConfig& cfg, double x) {
      cfg.psp = "div-" + util::fmt(x, 4);
    });
    util::Series glb{"MD_global n=" + std::to_string(n), markers[mi], {}, {}};
    util::Series loc{"MD_local n=" + std::to_string(n),
                     static_cast<char>('a' + mi), {}, {}};
    ++mi;
    for (std::size_t r = 0; r < points.size(); ++r) {
      rows[r].push_back(bench::md_cell(points[r], metrics::kLocalClass));
      rows[r].push_back(bench::md_cell(points[r], metrics::global_class(n)));
      glb.xs.push_back(points[r].x);
      glb.ys.push_back(exp::figures::md(points[r], metrics::global_class(n)));
      loc.xs.push_back(points[r].x);
      loc.ys.push_back(exp::figures::md(points[r], metrics::kLocalClass));
    }
    chart.add(std::move(glb));
    chart.add(std::move(loc));
  }
  for (auto& row : rows) table.add_row(std::move(row));
  std::printf("%s\n", table.render().c_str());
  std::printf("%s\n", chart.render().c_str());
  std::printf("(solid-equivalent: digits 2/4/6 = MD_global; letters a/b/c ="
              " MD_local for n=2/4/6)\n");
  return 0;
}
