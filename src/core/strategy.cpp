#include "src/core/strategy.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "src/core/psp_div.hpp"
#include "src/core/psp_gf.hpp"
#include "src/core/psp_ud.hpp"
#include "src/core/ssp_ed.hpp"
#include "src/core/ssp_eqf.hpp"
#include "src/core/ssp_eqs.hpp"
#include "src/core/ssp_ud.hpp"
#include "src/util/env.hpp"

namespace sda::core {

Time SspContext::remaining_pex_total() const noexcept {
  return std::accumulate(remaining_pex.begin(), remaining_pex.end(), Time{0});
}

Time SspContext::remaining_slack() const noexcept {
  return deadline - now - remaining_pex_total();
}

namespace {

/// Parses the parameter suffix of "div-2.5" / "gf-0.001" as strictly as a
/// config value: returns false unless the whole text is one decimal number
/// (no whitespace, '+', or hex spelling; the constructors refuse the rest).
bool parse_param(const std::string& text, double* out) {
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, *out);
  return ec == std::errc() && ptr == last;
}

// One generic registry (util::Registry, shared with the timer-queue
// backends) per strategy problem; lookup order is registration order,
// exact entries before prefix families because exact matching runs first.
using PspRegistry = util::Registry<PspStrategy>;
using SspRegistry = util::Registry<SspStrategy>;

/// Built-ins are seeded through the same add() path as user strategies the
/// first time any registry accessor runs.
PspRegistry& psp_registry() {
  static PspRegistry reg = [] {
    PspRegistry r("PSP", "strategy");
    r.add("ud",
          [](const std::string&) -> std::unique_ptr<PspStrategy> {
            return std::make_unique<PspUltimateDeadline>();
          },
          NameMatch::kExact, "ud");
    r.add("div-",
          [](const std::string& full) -> std::unique_ptr<PspStrategy> {
            double x = 0.0;
            if (!parse_param(full.substr(4), &x)) return nullptr;
            return std::make_unique<PspDiv>(x);
          },
          NameMatch::kPrefix, "div-<x>");
    r.add("gf",
          [](const std::string&) -> std::unique_ptr<PspStrategy> {
            return std::make_unique<PspGlobalsFirst>();
          },
          NameMatch::kExact, "gf");
    r.add("gf-",
          [](const std::string& full) -> std::unique_ptr<PspStrategy> {
            double delta = 0.0;
            if (!parse_param(full.substr(3), &delta)) return nullptr;
            return std::make_unique<PspGlobalsFirst>(delta);
          },
          NameMatch::kPrefix, "gf-<delta>");
    return r;
  }();
  return reg;
}

SspRegistry& ssp_registry() {
  static SspRegistry reg = [] {
    SspRegistry r("SSP", "strategy");
    auto exact = [&r](const char* name, auto make_fn) {
      r.add(name,
            [make_fn](const std::string&) -> std::unique_ptr<SspStrategy> {
              return make_fn();
            },
            NameMatch::kExact, name);
    };
    exact("ud", [] { return std::make_unique<SspUltimateDeadline>(); });
    exact("ed", [] { return std::make_unique<SspEffectiveDeadline>(); });
    exact("eqs", [] { return std::make_unique<SspEqualSlack>(); });
    exact("eqf", [] { return std::make_unique<SspEqualFlexibility>(); });
    return r;
  }();
  return reg;
}

}  // namespace

void register_psp(const std::string& name, PspFactory factory,
                  NameMatch match, const std::string& display) {
  psp_registry().add(name, std::move(factory), match, display);
}

void register_ssp(const std::string& name, SspFactory factory,
                  NameMatch match, const std::string& display) {
  ssp_registry().add(name, std::move(factory), match, display);
}

std::vector<std::string> list_psp_strategies() {
  return psp_registry().names();
}

std::vector<std::string> list_ssp_strategies() {
  return ssp_registry().names();
}

std::unique_ptr<PspStrategy> make_psp_strategy(const std::string& name) {
  return psp_registry().make(name);
}

std::unique_ptr<SspStrategy> make_ssp_strategy(const std::string& name) {
  return ssp_registry().make(name);
}

}  // namespace sda::core
