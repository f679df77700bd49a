#include "src/exp/compare.hpp"

#include <cmath>
#include <sstream>

#include "src/core/analysis.hpp"
#include "src/exp/runner.hpp"
#include "src/metrics/task_class.hpp"
#include "src/util/feq.hpp"
#include "src/util/table.hpp"

namespace sda::exp::compare {

void Scorecard::add(std::string id, std::string claim, bool pass,
                    std::string detail) {
  checks_.push_back(
      Check{std::move(id), std::move(claim), pass, std::move(detail)});
}

void Scorecard::check_near(std::string id, std::string claim, double measured,
                           double expected, double tolerance) {
  std::ostringstream detail;
  detail << "measured " << util::fmt(measured, 4) << " vs expected "
         << util::fmt(expected, 4) << " (tol " << util::fmt(tolerance, 4)
         << ")";
  add(std::move(id), std::move(claim),
      std::fabs(measured - expected) <= tolerance, detail.str());
}

void Scorecard::check_less(std::string id, std::string claim, double a,
                           double b, double margin) {
  std::ostringstream detail;
  detail << util::fmt(a, 4) << " < " << util::fmt(b, 4);
  if (util::fne(margin, 0.0)) {
    detail << " (margin " << util::fmt(margin, 4) << ")";
  }
  add(std::move(id), std::move(claim), a < b + margin, detail.str());
}

std::size_t Scorecard::failures() const noexcept {
  std::size_t n = 0;
  for (const Check& c : checks_) n += c.pass ? 0 : 1;
  return n;
}

std::string Scorecard::render() const {
  util::Table table({"check", "verdict", "claim", "measured"});
  for (const Check& c : checks_) {
    table.add_row({c.id, c.pass ? "PASS" : "FAIL", c.claim, c.detail});
  }
  std::ostringstream os;
  os << table.render();
  os << '\n' << (checks_.size() - failures()) << '/' << checks_.size()
     << " checks passed\n";
  return os.str();
}

namespace {

struct Md {
  double local = 0.0;
  double subtask = 0.0;
  double global = 0.0;
  double missed_work = 0.0;
  /// 95% CI half-widths — orderings between near-equal rates are checked
  /// up to the replication noise instead of as exact inequalities.
  double local_hw = 0.0;
  double global_hw = 0.0;
};

Md measure(ExperimentConfig c, int global_cls = metrics::global_class(4)) {
  const metrics::Report r = run_experiment(c);
  Md m;
  m.local = r.summary(metrics::kLocalClass).miss_rate.mean;
  m.subtask = r.summary(metrics::kSubtaskClass).miss_rate.mean;
  m.global = r.summary(global_cls).miss_rate.mean;
  m.missed_work = r.overall_missed_work().mean;
  m.local_hw = r.summary(metrics::kLocalClass).miss_rate.half_width;
  m.global_hw = r.summary(global_cls).miss_rate.half_width;
  return m;
}

}  // namespace

Scorecard run_reproduction_battery(const ExperimentConfig& config) {
  Scorecard card;

  ExperimentConfig base = config;
  base.load = 0.5;

  // ---- Figure 5 / §6.1 anchors (UD at load 0.5) --------------------------
  ExperimentConfig c = base;
  c.psp = "ud";
  const Md ud = measure(c);
  card.check_near("fig5.md-local", "MD_local(UD) ~ 8.9% at load .5", ud.local,
                  0.089, 0.015);
  card.check_near("fig5.md-subtask", "MD_subtask(UD) ~ 7.1%", ud.subtask,
                  0.071, 0.015);
  card.check_near("fig5.md-global", "MD_global(UD) ~ 25%", ud.global, 0.25,
                  0.03);
  card.check_less("fig5.subtask-below-local",
                  "subtasks have slightly more slack (Eq. 3)", ud.subtask,
                  ud.local);
  card.check_near(
      "fig5.independence",
      "MD_global ~ 1-(1-MD_subtask)^4 (independence approximation)",
      ud.global, core::analysis::global_miss_probability(ud.subtask, 4),
      0.04);

  // ---- Figure 6 (DIV-1 / DIV-2) -------------------------------------------
  c = base;
  c.psp = "div-1";
  const Md div1 = measure(c);
  c.psp = "div-2";
  const Md div2 = measure(c);
  card.check_near("fig6.div1-global", "MD_global(DIV-1) ~ 13% at load .5",
                  div1.global, 0.13, 0.025);
  card.check_near("fig6.div1-local", "MD_local(DIV-1) ~ 11.7%", div1.local,
                  0.117, 0.02);
  card.check_less("fig6.div1-halves", "DIV-1 roughly halves MD_global",
                  div1.global, 0.65 * ud.global);
  card.check_less("fig6.local-cost", "locals pay only mildly under DIV-1",
                  div1.local, ud.local + 0.05);
  card.check_near("fig6.div2-close", "DIV-2 ~= DIV-1 at moderate load",
                  div2.global, div1.global, 0.025);
  card.check_less("fig6.missed-work", "missed WORK improves under DIV-1",
                  div1.missed_work, ud.missed_work + 0.003);

  // ---- Figure 7 (GF) --------------------------------------------------------
  c = base;
  c.psp = "gf";
  const Md gf = measure(c);
  card.check_less("fig7.gf-beats-div1", "GF misses fewer globals than DIV-1",
                  gf.global, div1.global);
  card.check_near("fig7.gf-local", "GF ~= DIV-1 on locals", gf.local,
                  div1.local, 0.02);
  {
    ExperimentConfig hi = base;
    hi.load = 0.8;
    hi.psp = "div-1";
    const Md div1_hi = measure(hi);
    hi.psp = "gf";
    const Md gf_hi = measure(hi);
    card.check_less("fig7.gap-grows",
                    "DIV-1 -> GF gap widens at high load",
                    div1.global - gf.global, div1_hi.global - gf_hi.global);
  }

  // ---- Figure 9 (choosing x) ----------------------------------------------
  {
    ExperimentConfig fx = base;
    fx.n_min = fx.n_max = 2;
    fx.psp = "div-1";
    const Md x1 = measure(fx, metrics::global_class(2));
    fx.psp = "div-4";
    const Md x4 = measure(fx, metrics::global_class(2));
    card.check_near("fig9.flattens",
                    "for n=2 the curve has ~stabilized by x=1", x4.global,
                    x1.global, 0.035);
  }

  // ---- Figure 10 (frac_local) -----------------------------------------------
  {
    ExperimentConfig f0 = base;
    f0.frac_local = 0.0;
    f0.psp = "ud";
    const Md ud0 = measure(f0);
    f0.psp = "gf";
    const Md gf0 = measure(f0);
    card.check_near("fig10.gf-equals-ud",
                    "GF == UD when there are no local tasks", gf0.global,
                    ud0.global, 1e-9);
    ExperimentConfig f9 = base;
    f9.frac_local = 0.9;
    f9.psp = "gf";
    const Md gf9 = measure(f9);
    card.check_less("fig10.most-effective-with-locals",
                    "GF is most effective with a large local population",
                    gf9.global, gf0.global);
  }

  // ---- Figure 11 (PM abortion) ----------------------------------------------
  {
    ExperimentConfig ab = base;
    ab.pm_abort = core::PmAbortMode::kRealDeadline;
    ab.psp = "ud";
    const Md ud_ab = measure(ab);
    ab.psp = "div-1";
    const Md div1_ab = measure(ab);
    card.check_near("fig11.ud", "MD_global(UD, pm-abort) ~ 15%", ud_ab.global,
                    0.15, 0.025);
    card.check_near("fig11.div1", "MD_global(DIV-1, pm-abort) ~ 7.8%",
                    div1_ab.global, 0.078, 0.02);
    card.check_less("fig11.abort-helps",
                    "abortion lowers MD_global (no wasted work)",
                    ud_ab.global, ud.global);
  }

  // ---- Figure 12 (n ~ U[2..6]) -----------------------------------------------
  {
    ExperimentConfig nh = base;
    nh.n_min = 2;
    nh.n_max = 6;
    nh.psp = "ud";
    const metrics::Report r = run_experiment(nh);
    const double md2 = r.summary(metrics::global_class(2)).miss_rate.mean;
    const double md6 = r.summary(metrics::global_class(6)).miss_rate.mean;
    const double mdl = r.summary(metrics::kLocalClass).miss_rate.mean;
    card.check_less("fig12.grows-with-n", "under UD, MD grows with n", md2,
                    md6);
    card.check_near("fig12.n6-4x-locals", "n=6 misses ~4x the locals",
                    md6 / std::max(mdl, 1e-9), 4.0, 1.3);
    nh.psp = "div-1";
    const metrics::Report rd = run_experiment(nh);
    const double d2 = rd.summary(metrics::global_class(2)).miss_rate.mean;
    const double d6 = rd.summary(metrics::global_class(6)).miss_rate.mean;
    card.check_less("fig12.div1-levels",
                    "DIV-1 levels the classes (n=6 close to n=2)",
                    std::fabs(d6 - d2), std::fabs(md6 - md2));
  }

  // ---- Figure 15 (SSP + PSP on the Fig. 14 graph) ---------------------------
  {
    ExperimentConfig g = graph_config(config);
    g.load = 0.6;
    auto run_combo = [&](const char* psp, const char* ssp) {
      ExperimentConfig cc = g;
      cc.psp = psp;
      cc.ssp = ssp;
      return measure(cc, metrics::global_class(0));
    };
    const Md udud = run_combo("ud", "ud");
    const Md uddiv = run_combo("div-1", "ud");
    const Md eqfud = run_combo("ud", "eqf");
    const Md eqfdiv = run_combo("div-1", "eqf");
    card.check_less("fig15.div-helps", "UD-DIV1 beats UD-UD on globals",
                    uddiv.global, udud.global);
    card.check_less("fig15.eqf-helps", "EQF-UD beats UD-UD on globals",
                    eqfud.global, udud.global);
    card.check_less("fig15.additive-1", "EQF-DIV1 beats UD-DIV1",
                    eqfdiv.global, uddiv.global);
    card.check_less("fig15.additive-2", "EQF-DIV1 beats EQF-UD",
                    eqfdiv.global, eqfud.global);
    card.check_less("fig15.close-to-local",
                    "EQF-DIV1 keeps MD_global near MD_local at load .6",
                    eqfdiv.global, eqfdiv.local + 0.06);
    // Low-load inversion: globals miss slightly *less* than locals.
    ExperimentConfig lo = g;
    lo.load = 0.3;
    lo.psp = "ud";
    lo.ssp = "ud";
    const Md udud_lo = measure(lo, metrics::global_class(0));
    // Both rates are small and close here; at quick scales (few short
    // replications) the ordering can flip inside the CIs, so allow the
    // combined statistical margin.
    card.check_less("fig15.low-load-inversion",
                    "at low load globals miss less (5x slack)",
                    udud_lo.global, udud_lo.local,
                    udud_lo.global_hw + udud_lo.local_hw);
  }

  return card;
}

}  // namespace sda::exp::compare
