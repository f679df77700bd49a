#include "src/core/sda.hpp"

#include <algorithm>
#include <stdexcept>

namespace sda::core {

using task::TreeNode;

std::vector<Time> stage_pex(const TreeNode& serial, int from_stage) {
  if (!serial.is_serial()) {
    throw std::invalid_argument("stage_pex: node is not a serial composite");
  }
  const int m = static_cast<int>(serial.children.size());
  if (from_stage < 0 || from_stage >= m) {
    throw std::out_of_range("stage_pex: stage index out of range");
  }
  std::vector<Time> pex;
  pex.reserve(static_cast<std::size_t>(m - from_stage));
  for (int j = from_stage; j < m; ++j) {
    pex.push_back(task::critical_path_pex(*serial.children[j]));
  }
  return pex;
}

Time assign_stage_deadline(const SspStrategy& ssp, const TreeNode& serial,
                           int stage, Time now, Time serial_deadline) {
  SspContext ctx;
  ctx.now = now;
  ctx.deadline = serial_deadline;
  ctx.stage = stage;
  ctx.stage_count = static_cast<int>(serial.children.size());
  ctx.remaining_pex = stage_pex(serial, stage);
  return ssp.assign(ctx);
}

Time assign_branch_deadline(const PspStrategy& psp, const TreeNode& parallel,
                            int branch, Time now, Time parallel_deadline) {
  if (!parallel.is_parallel()) {
    throw std::invalid_argument(
        "assign_branch_deadline: node is not a parallel composite");
  }
  const int n = static_cast<int>(parallel.children.size());
  if (branch < 0 || branch >= n) {
    throw std::out_of_range("assign_branch_deadline: branch out of range");
  }
  PspContext ctx;
  ctx.now = now;
  ctx.deadline = parallel_deadline;
  ctx.branch_count = n;
  return psp.assign(ctx, branch,
                    task::critical_path_pex(*parallel.children[branch]));
}

Time assign_stage_deadline(const SspStrategy& ssp, const task::FlatTree& flat,
                           std::uint32_t serial_slot, int stage, Time now,
                           Time serial_deadline, SspContext& scratch) {
  const int m = static_cast<int>(flat.child_count(serial_slot));
  scratch.now = now;
  scratch.deadline = serial_deadline;
  scratch.stage = stage;
  scratch.stage_count = m;
  const Time* slice = flat.child_cp_pex(serial_slot);
  scratch.remaining_pex.assign(slice + stage, slice + m);
  return ssp.assign(scratch);
}

Time assign_branch_deadline(const PspStrategy& psp, const task::FlatTree& flat,
                            std::uint32_t parallel_slot, int branch, Time now,
                            Time parallel_deadline) {
  PspContext ctx;
  ctx.now = now;
  ctx.deadline = parallel_deadline;
  ctx.branch_count = static_cast<int>(flat.child_count(parallel_slot));
  return psp.assign(ctx, branch, flat.child_cp_pex(parallel_slot)[branch]);
}

namespace {
void walk_flat(const task::FlatTree& ft, std::uint32_t s, Time dispatch,
               Time deadline, const PspStrategy& psp, const SspStrategy& ssp,
               SspContext& scratch, std::vector<LeafAssignment>& out) {
  if (ft.is_leaf(s)) {
    out.push_back(LeafAssignment{&ft.node(s), dispatch, deadline});
    return;
  }
  const std::uint32_t cnt = ft.child_count(s);
  if (ft.is_serial(s)) {
    Time now = dispatch;
    for (std::uint32_t i = 0; i < cnt; ++i) {
      const Time stage_dl = assign_stage_deadline(
          ssp, ft, s, static_cast<int>(i), now, deadline, scratch);
      walk_flat(ft, ft.child(s, i), now, stage_dl, psp, ssp, scratch, out);
      // Optimistic static plan: the next stage is assumed to start at this
      // stage's assigned virtual deadline — but never before the current
      // dispatch time (an already-late stage, or a GF-shifted one, has a
      // virtual deadline in the past; time still only moves forward).
      now = std::max(now, stage_dl);
    }
    return;
  }
  for (std::uint32_t i = 0; i < cnt; ++i) {
    const Time branch_dl = assign_branch_deadline(
        psp, ft, s, static_cast<int>(i), dispatch, deadline);
    walk_flat(ft, ft.child(s, i), dispatch, branch_dl, psp, ssp, scratch, out);
  }
}
}  // namespace

void plan_assignment(const TreeNode& tree, Time arrival, Time deadline,
                     const PspStrategy& psp, const SspStrategy& ssp,
                     std::vector<LeafAssignment>& out) {
  // One flat build per walk, reused across calls on this thread: the plan
  // walk then reads precomputed critical paths off contiguous arrays
  // instead of re-walking every subtree per stage (the old quadratic-ish
  // inner loop behind BM_SdaPlanWalk).
  thread_local task::FlatTree flat;
  thread_local SspContext scratch;
  flat.build(tree);
  out.clear();
  out.reserve(static_cast<std::size_t>(flat.leaf_count()));
  walk_flat(flat, 0, arrival, deadline, psp, ssp, scratch, out);
}

std::vector<LeafAssignment> plan_assignment(const TreeNode& tree, Time arrival,
                                            Time deadline,
                                            const PspStrategy& psp,
                                            const SspStrategy& ssp) {
  std::vector<LeafAssignment> out;
  plan_assignment(tree, arrival, deadline, psp, ssp, out);
  return out;
}

}  // namespace sda::core
