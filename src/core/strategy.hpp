// Deadline-assignment strategy interfaces (the paper's contribution).
//
// A strategy maps the (virtual) deadline of a composite task to virtual
// deadlines for its children:
//
//   * PspStrategy handles parallel composites  T = [T1 || ... || Tn]
//     (paper Section 4: UD, DIV-x, GF);
//   * SspStrategy handles serial composites    T = [T1 T2 ... Tm]
//     (companion paper [6], summarized in Section 8: UD, ED, EQS, EQF).
//
// Strategies are pure policy: they see only submission times, deadlines and
// *predicted* execution times (pex), never the true ex — matching the
// paper's on-line, estimate-only premise.  The recursive composition over a
// serial-parallel tree (paper Figure 13) lives in sda.hpp.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/task/tree.hpp"
#include "src/util/registry.hpp"
#include "src/util/unique_fn.hpp"

namespace sda::core {

using task::Time;

/// Inputs for assigning a deadline to one branch of a parallel composite.
struct PspContext {
  Time now = 0.0;       ///< assignment time == ar(T) of the composite
  Time deadline = 0.0;  ///< dl(T): the composite's own (virtual) deadline
  int branch_count = 1; ///< n: number of parallel branches
};

/// Policy for the Parallel Subtask Problem.
class PspStrategy {
 public:
  virtual ~PspStrategy() = default;

  /// Virtual deadline for branch @p branch (0-based). @p branch_pex is the
  /// predicted critical-path demand of that branch; UD/DIV-x/GF ignore it,
  /// but custom strategies (see examples/custom_strategy.cpp) may not.
  virtual Time assign(const PspContext& ctx, int branch,
                      Time branch_pex) const = 0;

  /// Display name, e.g. "DIV-1".
  virtual std::string name() const = 0;
};

/// Inputs for assigning a deadline to the next stage of a serial composite.
/// Stages are dispatched on-line: stage i's context is built when stage i-1
/// finishes, so `now` reflects actual (not predicted) progress.
struct SspContext {
  Time now = 0.0;        ///< dispatch time of this stage == ar(T_i)
  Time deadline = 0.0;   ///< dl(T): the serial composite's (virtual) deadline
  int stage = 0;         ///< i: 0-based index of the stage being dispatched
  int stage_count = 1;   ///< m: total number of stages
  /// Predicted critical-path demand of each *remaining* stage, i.e.
  /// remaining_pex[0] is pex(T_i), remaining_pex[1] is pex(T_{i+1}), ...
  std::vector<Time> remaining_pex;

  /// Sum over remaining_pex.
  Time remaining_pex_total() const noexcept;
  /// Total slack left: dl(T) - now - sum of remaining pex. May be negative.
  Time remaining_slack() const noexcept;
};

/// Policy for the Serial Subtask Problem.
class SspStrategy {
 public:
  virtual ~SspStrategy() = default;

  /// Virtual deadline for the stage described by @p ctx.
  virtual Time assign(const SspContext& ctx) const = 0;

  /// Display name, e.g. "EQF".
  virtual std::string name() const = 0;
};

// --- strategy registry ----------------------------------------------------
//
// Strategies are constructed by name through a registry instead of a
// hardcoded if-chain, so user code (examples/custom_strategy.cpp) extends
// the factory itself: a strategy registered here is reachable from every
// config-driven surface — ExperimentConfig, sweeps, and the sda_run CLI —
// without touching library code.
//
// Built-ins self-register the first time any registry function runs (a
// function-local static, so there is no static-initialization-order or
// dead-object-file hazard).  register_* is not thread-safe against
// concurrent make_*_strategy calls: register custom strategies up front,
// before experiments fan out over the thread pool.

/// Factory callback: receives the full lowercased name that matched (for
/// parameterized families like "div-2.5" the suffix carries the
/// parameter).  Returns nullptr to signal "name matched my prefix but the
/// parameter does not parse" — lookup then reports an unknown name.
using PspFactory =
    util::UniqueFn<std::unique_ptr<PspStrategy>(const std::string&)>;
using SspFactory =
    util::UniqueFn<std::unique_ptr<SspStrategy>(const std::string&)>;

/// How a registered name matches lookups (shared with every other backend
/// registry — see util::Registry).
using util::NameMatch;

/// Registers a PSP strategy under @p name.  @p display is what
/// list_psp_strategies() shows (e.g. "div-<x>"; defaults to @p name).
/// Throws std::invalid_argument when the name (or prefix) is already
/// registered.
void register_psp(const std::string& name, PspFactory factory,
                  NameMatch match = NameMatch::kExact,
                  const std::string& display = {});

/// Same for SSP strategies.
void register_ssp(const std::string& name, SspFactory factory,
                  NameMatch match = NameMatch::kExact,
                  const std::string& display = {});

/// Display names of every registered strategy, in registration order
/// (built-ins first) — the CLI's --list-strategies output.
std::vector<std::string> list_psp_strategies();
std::vector<std::string> list_ssp_strategies();

/// Factory: "ud", "div-1", "div-2.5", "gf", "gf-<delta>", plus anything
/// registered (case-insensitive).  Throws std::invalid_argument on unknown
/// names, listing the registered strategies and suggesting near-misses.
std::unique_ptr<PspStrategy> make_psp_strategy(const std::string& name);

/// Factory: "ud", "ed", "eqs", "eqf", plus anything registered
/// (case-insensitive).  Throws std::invalid_argument on unknown names.
std::unique_ptr<SspStrategy> make_ssp_strategy(const std::string& name);

}  // namespace sda::core
