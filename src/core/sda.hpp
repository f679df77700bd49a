// Recursive subtask-deadline assignment over serial-parallel trees —
// the paper's Figure 13 SDA algorithm:
//
//   FUNCTION SDA(X, D):
//     if X is simple               -> dl(X) := D
//     if X = [X1 X2 ... Xm]        -> assign dl(X1) by the SSP strategy;
//                                     SDA(X1, dl(X1))      (later stages
//                                     are assigned when they become
//                                     executable)
//     if X = [X1 || ... || Xn]     -> assign each dl(Xi) by the PSP
//                                     strategy; SDA(Xi, dl(Xi)) in parallel
//
// Two forms are provided:
//   * the per-step helpers (stage_pex / assign_stage_deadline /
//     assign_branch_deadline) used by the on-line ProcessManager, which
//     re-evaluates serial stages at their *actual* dispatch times; and
//   * plan_assignment, an offline walk for inspection/tooling that assumes
//     every serial stage finishes exactly at its assigned virtual deadline.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/strategy.hpp"
#include "src/task/attributes.hpp"

namespace sda::core {

/// Predicted critical-path demand of each stage of @p serial starting at
/// @p from_stage — the `remaining_pex` vector an SspContext needs.
/// Requires serial.is_serial() and 0 <= from_stage < #children.
std::vector<Time> stage_pex(const task::TreeNode& serial, int from_stage);

/// Virtual deadline for stage @p stage of @p serial, dispatched at @p now
/// under the composite's (virtual) deadline @p serial_deadline.
Time assign_stage_deadline(const SspStrategy& ssp,
                           const task::TreeNode& serial, int stage, Time now,
                           Time serial_deadline);

/// Virtual deadline for branch @p branch of @p parallel, all branches
/// released at @p now under the composite's (virtual) deadline
/// @p parallel_deadline.
Time assign_branch_deadline(const PspStrategy& psp,
                            const task::TreeNode& parallel, int branch,
                            Time now, Time parallel_deadline);

// --- FlatTree fast paths ----------------------------------------------------
//
// Slot-indexed equivalents of the helpers above for callers that already
// hold a built task::FlatTree (the on-line process manager, plan walks).
// They read the precomputed per-child critical paths off a contiguous
// slice instead of re-walking subtrees, and reuse a caller-owned
// SspContext so the steady state allocates nothing.  Results are
// bit-identical to the TreeNode versions.

/// Stage assignment over flat storage.  @p scratch's remaining_pex is
/// overwritten (capacity reused); other fields are set per call.
Time assign_stage_deadline(const SspStrategy& ssp, const task::FlatTree& flat,
                           std::uint32_t serial_slot, int stage, Time now,
                           Time serial_deadline, SspContext& scratch);

/// Branch assignment over flat storage.
Time assign_branch_deadline(const PspStrategy& psp, const task::FlatTree& flat,
                            std::uint32_t parallel_slot, int branch, Time now,
                            Time parallel_deadline);

/// One leaf's planned dispatch time and virtual deadline.
struct LeafAssignment {
  const task::TreeNode* leaf = nullptr;
  Time planned_dispatch = 0.0;    ///< when the leaf becomes executable
  Time virtual_deadline = 0.0;    ///< deadline the leaf's node would see
};

/// Offline SDA walk: assigns a virtual deadline to every leaf, assuming
/// serial stage i+1 is dispatched exactly at stage i's assigned virtual
/// deadline (the optimistic static plan).  Leaves are returned in DFS
/// order.  Used by examples/notation_tool and the strategy tests; the
/// simulator itself uses the on-line per-step helpers.
std::vector<LeafAssignment> plan_assignment(const task::TreeNode& tree,
                                            Time arrival, Time deadline,
                                            const PspStrategy& psp,
                                            const SspStrategy& ssp);

/// plan_assignment into @p out (cleared first), reusing its capacity:
/// the admission controller plans every attempt this way.
void plan_assignment(const task::TreeNode& tree, Time arrival, Time deadline,
                     const PspStrategy& psp, const SspStrategy& ssp,
                     std::vector<LeafAssignment>& out);

}  // namespace sda::core
