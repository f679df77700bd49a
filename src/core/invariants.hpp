// SDA_VALIDATE — the runtime invariant oracle.
//
// The paper's results rest on properties the production code never
// restates: SDA (Fig. 13) hands every child a virtual deadline that
// partitions its parent's window, the per-node ready queues stay
// heap-ordered through the O(log n) remove/abort path, and the event
// queue never runs time backwards.  This header is the single switch
// point for checking all of them at run time.
//
// Activation is two-layered:
//   * compile layer — every hook body is guarded by SDA_VALIDATE_COMPILED
//     (default 1; configure with -DSDA_VALIDATE=OFF, which defines it to
//     0, to compile the oracle out entirely for maximum-speed builds);
//   * run layer — with the oracle compiled in, checks only execute when
//     the SDA_VALIDATE environment variable is truthy ("1", "true", ...)
//     or a test called set_enabled(true).  Disabled cost is one relaxed
//     atomic load and branch per hook.
//
// A violated invariant is not an error to recover from — it means the
// simulator is producing numbers that cannot be trusted — so fail()
// prints a structured key=value dump to stderr and calls std::abort().
//
// What the oracle asserts (each check self-gates on the preconditions
// under which the built-in strategy families actually guarantee it; see
// DESIGN.md "Correctness tooling"):
//   (a) SDA assignments: finite deadlines; child deadline inside the
//       parent window when the window has non-negative slack; the final
//       serial stage's deadline equal to the composite's (the partition
//       property); offline plans monotone along serial chains and
//       bounded by the global deadline while feasible.
//   (b) ready-queue heaps: heap order, queue_pos back-link identity and
//       stored keys equal to their tasks' policy keys after every
//       mutation (see sched::ReadyQueue::validate);
//   (c) event queue: heap order, live-count bookkeeping, no NaN
//       timestamps, and non-decreasing pop times (see EventQueue hooks).
#pragma once

#include <atomic>
#include <string>

#ifndef SDA_VALIDATE_COMPILED
#define SDA_VALIDATE_COMPILED 1
#endif

namespace sda::task {
struct TreeNode;
}  // namespace sda::task

namespace sda::core {
class PspStrategy;
class SspStrategy;
}  // namespace sda::core

namespace sda::core::invariants {

namespace detail {
/// Process-wide switch.  Zero-initialized (off) before invariants.cpp's
/// dynamic initializer reads SDA_VALIDATE from the environment, so hooks
/// that run during static initialization are safely skipped.
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// True when the oracle should run its checks.
inline bool enabled() noexcept {
#if SDA_VALIDATE_COMPILED
  return detail::g_enabled.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

/// Turns the oracle on or off programmatically (tests, tools).  The
/// SDA_VALIDATE environment variable sets the initial state.
void set_enabled(bool on) noexcept;

/// Incrementally builds the key=value detail block of a violation dump.
class Dump {
 public:
  Dump& num(const char* key, double value);
  Dump& integer(const char* key, long long value);
  Dump& str(const char* key, const std::string& value);
  const std::string& text() const noexcept { return text_; }

 private:
  std::string text_;
};

/// Reports a violated invariant: prints the check name and dump to
/// stderr in a structured block, then aborts the process.
[[noreturn]] void fail(const char* check, const Dump& dump) noexcept;

/// Tolerance for deadline identities: assignments are sums of doubles,
/// so exact equality is one rounding away from a false alarm.
inline constexpr double kDeadlineEps = 1e-6;

// --- (a) SDA assignment checks ------------------------------------------

/// Validates one PSP branch assignment made at time @p now under the
/// parallel composite's deadline @p parent_deadline.  Requires a finite
/// child deadline always; when the parent window is still open
/// (parent_deadline >= now) the child deadline must not exceed it.
void check_branch_assignment(const std::string& psp_name,
                             double parent_deadline, double now, int branch,
                             int branch_count, double child_deadline);

/// Validates one SSP stage assignment.  Requires a finite deadline
/// always; the final stage's deadline must equal the composite's
/// (partition property, all built-in SSPs); a non-final stage with
/// non-negative remaining slack must stay inside [now, parent_deadline].
void check_stage_assignment(const std::string& ssp_name,
                            double parent_deadline, double now, int stage,
                            int stage_count, double remaining_pex_total,
                            double child_deadline);

/// Walks the offline SDA plan of @p tree (the optimistic static
/// assignment, as in plan_assignment) and asserts, for every composite
/// whose local window has non-negative slack: containment in the parent
/// window, non-decreasing deadlines along serial chains, and leaf
/// deadlines bounded by @p deadline (the global end-to-end deadline).
/// Called by ProcessManager::submit when the oracle is enabled.
void check_plan(const task::TreeNode& tree, double arrival, double deadline,
                const PspStrategy& psp, const SspStrategy& ssp);

}  // namespace sda::core::invariants
