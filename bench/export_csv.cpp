// Regenerates the main figures' series and writes them as CSV files under
// ./results/ for external plotting (gnuplot, matplotlib, R).  The schema is
// long-form: series,x,class,class_name,miss_rate,miss_rate_hw,missed_work,
// finished.
#include <cstdio>
#include <filesystem>

#include "bench/common.hpp"

#include "src/exp/csv.hpp"

int bench::driver(int argc, char** argv) {
  using namespace sda;
  exp::ExperimentConfig base = exp::baseline_config();
  bench::apply_kv_args(argc, argv, base);

  std::error_code ec;
  std::filesystem::create_directories("results", ec);
  if (ec) {
    std::fprintf(stderr, "cannot create ./results: %s\n",
                 ec.message().c_str());
    return 1;
  }

  const auto loads = exp::figures::default_loads();
  int written = 0;
  auto dump = [&](const std::string& file,
                  const std::vector<exp::figures::LoadSweepSeries>& series,
                  const std::string& x_name) {
    std::vector<std::pair<std::string, std::vector<exp::SweepPoint>>> named;
    for (const auto& s : series) {
      const std::string tag = s.ssp == "ud" ? s.psp : s.ssp + "-" + s.psp;
      named.push_back({tag, s.points});
    }
    const std::string path = "results/" + file;
    if (exp::write_text_file(path, exp::series_to_csv(named, x_name))) {
      std::printf("wrote %s\n", path.c_str());
      ++written;
    } else {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
    }
  };

  // Figures 5-7 share one sweep set.
  dump("fig05_07_psp_load_sweep.csv",
       exp::figures::load_sweep(
           base, {{"ud", "ud"}, {"div-1", "ud"}, {"div-2", "ud"}, {"gf", "ud"}},
           loads),
       "load");

  // Figure 11: with process-manager abortion.
  {
    exp::ExperimentConfig ab = base;
    ab.pm_abort = core::PmAbortMode::kRealDeadline;
    dump("fig11_pm_abort_load_sweep.csv",
         exp::figures::load_sweep(ab, {{"ud", "ud"}, {"div-1", "ud"}, {"gf", "ud"}},
                                  loads),
         "load");
  }

  // Figure 15: the serial-parallel graph with Table 2's combinations.
  {
    const exp::ExperimentConfig g = exp::graph_config(base);
    dump("fig15_ssp_psp_load_sweep.csv",
         exp::figures::load_sweep(
             g, {{"ud", "ud"}, {"div-1", "ud"}, {"ud", "eqf"}, {"div-1", "eqf"}},
             loads),
         "load");
  }

  // Figure 10: frac_local sweep.
  {
    const std::vector<double> fracs = {0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9};
    std::vector<exp::figures::LoadSweepSeries> series;
    for (const char* psp : {"ud", "div-1", "gf"}) {
      exp::ExperimentConfig c = base;
      c.psp = psp;
      exp::figures::LoadSweepSeries s;
      s.psp = psp;
      s.ssp = "ud";
      s.points = exp::sweep(
          c, fracs,
          [](exp::ExperimentConfig& cfg, double f) { cfg.frac_local = f; });
      series.push_back(std::move(s));
    }
    dump("fig10_frac_local_sweep.csv", series, "frac_local");
  }

  std::printf("%d CSV files under ./results (schema: series,x,class,...)\n",
              written);
  return written == 4 ? 0 : 1;
}
