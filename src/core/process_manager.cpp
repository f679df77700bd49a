#include "src/core/process_manager.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "src/core/invariants.hpp"

namespace sda::core {

using task::FlatTree;
using task::TaskPtr;
using task::TaskState;
using task::TreeNode;

namespace {
/// Retired Run objects kept around for reuse; beyond this they are freed.
/// Sized for the live-run population of a loaded system, not its lifetime
/// throughput — the pool exists to make the steady state allocation-free.
constexpr std::size_t kRunPoolCap = 64;
}  // namespace

DirectNodePort::DirectNodePort(std::vector<sched::Node*> nodes)
    : nodes_(std::move(nodes)) {
  for (const auto* n : nodes_) {
    if (n == nullptr) throw std::invalid_argument("ProcessManager: null node");
  }
}

bool DirectNodePort::is_up(int node) const {
  return nodes_[static_cast<std::size_t>(node)]->is_up();
}

void DirectNodePort::submit(int node, const task::TaskPtr& t) {
  nodes_[static_cast<std::size_t>(node)]->submit(t);
}

void DirectNodePort::abort(int node, const task::SimpleTask& t) {
  nodes_[static_cast<std::size_t>(node)]->abort(t);
}

void ProcessManager::Run::arm(std::uint32_t n) {
  assigned_deadline.assign(n, 0.0);
  progress.assign(n, 0);
  live.assign(n, nullptr);
  leaf_retries.assign(n, 0);
  retry_timers.assign(n, sim::EventId{});
  live_count = 0;
  retry_timer_count = 0;
  resubmissions = 0;
  retries = 0;
  abort_timer = sim::EventId{};
}

ProcessManager::ProcessManager(sim::Engine& engine,
                               std::vector<sched::Node*> nodes, Config config)
    : engine_(engine),
      owned_port_(std::make_unique<DirectNodePort>(std::move(nodes))),
      port_(owned_port_.get()),
      config_(std::move(config)) {
  if (!config_.psp) throw std::invalid_argument("ProcessManager: PSP strategy required");
  if (!config_.ssp) throw std::invalid_argument("ProcessManager: SSP strategy required");
}

ProcessManager::ProcessManager(sim::Engine& engine, NodePort& port,
                               Config config)
    : engine_(engine), port_(&port), config_(std::move(config)) {
  if (!config_.psp) throw std::invalid_argument("ProcessManager: PSP strategy required");
  if (!config_.ssp) throw std::invalid_argument("ProcessManager: SSP strategy required");
}

ProcessManager::Run* ProcessManager::find_run(std::uint64_t run_id) {
  if (cached_run_ != nullptr && cached_run_->id == run_id) return cached_run_;
  auto it = runs_.find(run_id);
  if (it == runs_.end()) return nullptr;
  cached_run_ = it->second.get();
  return cached_run_;
}

std::unique_ptr<ProcessManager::Run> ProcessManager::acquire_run() {
  if (run_pool_.empty()) return std::make_unique<Run>();
  std::unique_ptr<Run> run = std::move(run_pool_.back());
  run_pool_.pop_back();
  return run;
}

void ProcessManager::recycle_run(std::unique_ptr<Run> run) {
  if (run_pool_.size() >= kRunPoolCap) return;  // let it free
  // Drop references now (tree node pool blocks, task objects); the vector
  // capacities and the FlatTree arena are what the pool preserves.
  run->tree.reset();
  run->live.clear();
  run_pool_.push_back(std::move(run));
}

std::uint64_t ProcessManager::submit(task::TreePtr tree, sim::Time deadline,
                                     int global_metrics_class,
                                     int subtask_metrics_class) {
  if (!tree) throw std::invalid_argument("ProcessManager::submit: null tree");
  if (auto why = task::validate(*tree); !why.empty()) {
    throw std::invalid_argument("ProcessManager::submit: " + why);
  }

  std::unique_ptr<Run> owned = acquire_run();
  Run& run = *owned;
  run.tree = std::move(tree);
  run.flat.build(*run.tree);
  for (std::uint32_t s = 0; s < run.flat.size(); ++s) {
    if (!run.flat.is_leaf(s)) continue;
    const int node = run.flat.node(s).exec_node;
    if (node < 0 || node >= node_count()) {
      // No state has changed yet (the id counter is untouched); the tree
      // dies with `owned`.
      throw std::out_of_range("ProcessManager::submit: leaf bound to node " +
                              std::to_string(node) + " but the system has " +
                              std::to_string(node_count()) + " nodes");
    }
  }

  const std::uint64_t id = next_run_id_++;
  run.id = id;
  run.arrival = engine_.now();
  run.real_deadline = deadline;
  run.metrics_class = global_metrics_class;
  run.subtask_metrics_class = subtask_metrics_class;
  run.total_work = run.flat.total_ex();
  run.subtask_count = run.flat.leaf_count();
  run.arm(run.flat.size());
  runs_.emplace(id, std::move(owned));
  cached_run_ = &run;
  ++submitted_;
  if (on_submitted_) on_submitted_(id, deadline);

  if (config_.abort_mode == PmAbortMode::kRealDeadline) {
    // Footnote 8: when the timer at the *real* deadline expires, the whole
    // global task is aborted (all of its subtasks).
    run.abort_timer = engine_.at(deadline, [this, id] { abort_run(id); });
  }

  // Oracle: before committing to the on-line dispatch, verify the
  // strategies' offline plan partitions this task's window (containment,
  // serial-chain monotonicity, global-deadline bound).  Strategies are
  // pure, so the extra walk cannot perturb the simulation.
  if (invariants::enabled()) {
    invariants::check_plan(*run.tree, engine_.now(), deadline, *config_.psp,
                           *config_.ssp);
  }

  // SDA(root, dl(T)).
  dispatch(run, 0, deadline);
  return id;
}

void ProcessManager::dispatch(Run& run, std::uint32_t slot,
                              sim::Time deadline) {
  run.assigned_deadline[slot] = deadline;
  if (run.flat.is_leaf(slot)) {
    dispatch_leaf(run, slot, deadline);
    return;
  }
  if (run.flat.is_serial(slot)) {
    run.progress[slot] = 0;
    dispatch_serial_stage(run, slot);
    return;
  }
  // Parallel: all branches are released now, each with its PSP deadline.
  const int n = static_cast<int>(run.flat.child_count(slot));
  run.progress[slot] = n;
  for (int i = 0; i < n; ++i) {
    const sim::Time branch_dl = assign_branch_deadline(
        *config_.psp, run.flat, slot, i, engine_.now(), deadline);
    if (invariants::enabled()) {
      invariants::check_branch_assignment(config_.psp->name(), deadline,
                                          engine_.now(), i, n, branch_dl);
    }
    dispatch(run, run.flat.child(slot, static_cast<std::uint32_t>(i)),
             branch_dl);
  }
}

void ProcessManager::dispatch_serial_stage(Run& run,
                                           std::uint32_t serial_slot) {
  const int i = run.progress[serial_slot];
  const int m = static_cast<int>(run.flat.child_count(serial_slot));
  assert(i < m);
  const sim::Time serial_deadline = run.assigned_deadline[serial_slot];
  const sim::Time stage_dl =
      assign_stage_deadline(*config_.ssp, run.flat, serial_slot, i,
                            engine_.now(), serial_deadline, ssp_scratch_);
  if (invariants::enabled()) {
    sim::Time remaining = 0.0;
    const sim::Time* slice = run.flat.child_cp_pex(serial_slot);
    for (int j = i; j < m; ++j) remaining += slice[j];
    invariants::check_stage_assignment(config_.ssp->name(), serial_deadline,
                                       engine_.now(), i, m, remaining,
                                       stage_dl);
  }
  dispatch(run, run.flat.child(serial_slot, static_cast<std::uint32_t>(i)),
           stage_dl);
}

void ProcessManager::dispatch_leaf(Run& run, std::uint32_t leaf_slot,
                                   sim::Time deadline) {
  const TreeNode& leaf = run.flat.node(leaf_slot);
  TaskPtr t = task::make_subtask(next_task_id_++, run.id, leaf.exec_node,
                                 engine_.now(), leaf.exec_time, leaf.pred_exec,
                                 run.real_deadline);
  t->attrs.virtual_deadline = deadline;
  t->metrics_class = run.subtask_metrics_class;
  t->non_abortable = config_.mark_subtasks_non_abortable;
  t->leaf_slot = leaf_slot;
  run.live[leaf_slot] = t;
  ++run.live_count;
  port_->submit(leaf.exec_node, t);
}

void ProcessManager::handle_outcome(const TaskPtr& t,
                                    sched::Node::Outcome outcome) {
  Run* run = live_run(*t);
  if (run == nullptr) return;
  switch (outcome) {
    case sched::Node::Outcome::kCompleted:
      handle_completion(*run, t);
      return;
    case sched::Node::Outcome::kLocalAbort:
      handle_local_abort(*run, t);
      return;
    case sched::Node::Outcome::kFailed:
      handle_failure(*run, t);
      return;
  }
}

void ProcessManager::handle_remote(const task::SimpleTask& snapshot,
                                   sched::Node::Outcome outcome) {
  Run* run = live_run(snapshot);
  if (run == nullptr) return;
  // Keep the manager's copy alive across the handler (which may erase the
  // run) and refresh it from the node's snapshot — the same field values
  // the serial path sees on its shared object.
  const TaskPtr t = run->live[snapshot.leaf_slot];
  *t = snapshot;
  handle_outcome(t, outcome);
}

void ProcessManager::handle_completion(Run& run, const TaskPtr& t) {
  const std::uint32_t leaf_slot = t->leaf_slot;
  run.live[leaf_slot].reset();
  --run.live_count;
  if (on_subtask_) on_subtask_(*t);
  child_done(run, leaf_slot);
}

void ProcessManager::handle_local_abort(Run& run, const TaskPtr& t) {
  // Resubmission budget exhausted: abort the whole run instead of feeding
  // it more service it cannot convert into a timely completion.
  if (run.resubmissions >= config_.max_resubmissions_per_run) {
    terminate_run(run, /*shed=*/false);
    return;
  }

  // §7.3: the victim's slack was mostly consumed by the failed attempt; it
  // is resubmitted with its remaining real deadline as the virtual deadline
  // (no further priority promotion) and marked non-abortable: the global
  // task cannot terminate unless this subtask eventually finishes, and a
  // second local abort at the real deadline would only waste more work.
  // The resubmitted subtask therefore completes — typically late, which is
  // exactly the paper's "little slack left ... will very likely miss its
  // deadline".
  ++run.resubmissions;
  ++resubmissions_;
  t->state = TaskState::kCreated;
  t->attrs.arrival = engine_.now();
  t->attrs.virtual_deadline = t->attrs.real_deadline;
  t->non_abortable = true;
  port_->submit(t->exec_node, t);
}

void ProcessManager::child_done(Run& run, std::uint32_t child_slot) {
  const std::uint32_t p = run.flat.parent(child_slot);
  if (p == FlatTree::kNoParent) {
    finish_run(run, /*aborted=*/false);
    return;
  }
  if (run.flat.is_serial(p)) {
    int& next = run.progress[p];
    ++next;
    if (next < static_cast<int>(run.flat.child_count(p))) {
      dispatch_serial_stage(run, p);
    } else {
      child_done(run, p);
    }
    return;
  }
  assert(run.flat.is_parallel(p));
  if (--run.progress[p] == 0) child_done(run, p);
}

void ProcessManager::finish_run(Run& run, bool aborted, bool shed) {
  GlobalTaskRecord rec;
  rec.run_id = run.id;
  rec.metrics_class = run.metrics_class;
  rec.arrival = run.arrival;
  rec.real_deadline = run.real_deadline;
  rec.finished_at = engine_.now();
  rec.aborted = aborted;
  rec.missed = aborted || rec.finished_at > run.real_deadline;
  rec.total_work = run.total_work;
  rec.subtask_count = run.subtask_count;
  rec.resubmissions = run.resubmissions;
  rec.retries = run.retries;
  rec.shed = shed;

  // Timer hygiene: every terminal path ends here, so neither the run's
  // abort timer nor any pending backoff-retry timer can outlive the run
  // and fire against recycled state.  A run shed by negative-slack
  // shedding while a leaf waits out its backoff reaches this via
  // terminate_run, which is exactly the case the retry-timer slots exist
  // for.
  if (engine_.pending(run.abort_timer)) engine_.cancel(run.abort_timer);
  assert(!engine_.pending(run.abort_timer));
  if (run.retry_timer_count > 0) {
    for (sim::EventId& timer : run.retry_timers) {
      if (engine_.pending(timer)) engine_.cancel(timer);
      timer = sim::EventId{};
    }
    run.retry_timer_count = 0;
  }
  if (shed) {
    ++shed_runs_;
    ++aborted_runs_;
  } else if (aborted) {
    ++aborted_runs_;
  } else {
    ++completed_runs_;
  }
  // The extract destroys nothing (the Run moves into the pool); rec was
  // copied out above and on_global_ is a member of *this, so invoking it
  // after the run is retired is safe.
  if (cached_run_ == &run) cached_run_ = nullptr;
  auto it = runs_.find(run.id);
  assert(it != runs_.end());
  std::unique_ptr<Run> owned = std::move(it->second);
  runs_.erase(it);
  recycle_run(std::move(owned));
  if (on_global_) on_global_(rec);
}

void ProcessManager::abort_run(std::uint64_t run_id) {
  Run* run = find_run(run_id);
  if (run == nullptr) return;
  terminate_run(*run, /*shed=*/false);
}

void ProcessManager::terminate_run(Run& run, bool shed) {
  // Abort every live subtask at its node; each counts as a missed subtask.
  // Stages not yet dispatched are simply never dispatched.  Iterate in
  // task-id order (== dispatch order), which slot order is not: serial
  // stages dispatch as predecessors finish, interleaved across branches.
  std::vector<TaskPtr> victims;
  victims.reserve(static_cast<std::size_t>(run.live_count));
  for (TaskPtr& lt : run.live) {
    if (lt) victims.push_back(std::move(lt));
  }
  run.live_count = 0;
  std::sort(victims.begin(), victims.end(),
            [](const TaskPtr& a, const TaskPtr& b) { return a->id < b->id; });
  for (const TaskPtr& t : victims) {
    // A task waiting out a retry backoff or already killed by a fault is
    // not at any node; abort() is a no-op for it.
    port_->abort(t->exec_node, *t);
    if (!task::is_terminal(t->state)) {
      t->state = TaskState::kAborted;
      t->finished_at = engine_.now();
    }
    if (on_subtask_) on_subtask_(*t);
  }
  finish_run(run, /*aborted=*/true, shed);
}

void ProcessManager::handle_failure(Run& run, const TaskPtr& t) {
  const std::uint32_t leaf_slot = t->leaf_slot;
  const RecoveryPolicy& rp = config_.recovery;

  // Bounded retries: the (max+1)-th fault within one run sheds it.
  if (run.retries >= rp.max_retries_per_run) {
    terminate_run(run, /*shed=*/true);
    return;
  }
  // Deadline-aware shedding: if even the predicted remainder cannot fit in
  // the slack left, drop the run now instead of burning more service on it.
  if (rp.shed_negative_slack &&
      engine_.now() + remaining_path_pex(run, leaf_slot) > run.real_deadline) {
    terminate_run(run, /*shed=*/true);
    return;
  }

  ++run.retries;
  ++fault_retries_;
  const int attempt = ++run.leaf_retries[leaf_slot];
  const double delay =
      rp.backoff_base > 0.0
          ? rp.backoff_base * std::pow(rp.backoff_factor, attempt - 1)
          : 0.0;
  if (delay > 0.0) {
    ++run.retry_timer_count;
    run.retry_timers[leaf_slot] = engine_.in(delay, [this, t] {
      Run* r = live_run(*t);
      if (r == nullptr) return;  // the run ended while backing off
      r->retry_timers[t->leaf_slot] = sim::EventId{};
      --r->retry_timer_count;
      resubmit_retry(*r, t->leaf_slot, t);
    });
  } else {
    resubmit_retry(run, leaf_slot, t);
  }
}

void ProcessManager::resubmit_retry(Run& run, std::uint32_t leaf_slot,
                                    const TaskPtr& t) {
  const RecoveryPolicy& rp = config_.recovery;
  int target = t->exec_node;
  if (rp.failover && !port_->is_up(target)) {
    target = failover_target(target);
    if (target != t->exec_node) ++failovers_;
  }
  t->state = TaskState::kCreated;
  t->attrs.arrival = engine_.now();
  if (rp.deadline_mode == RetryDeadline::kSdaRecompute) {
    t->attrs.virtual_deadline = recompute_deadline(run, leaf_slot);
  }
  t->exec_node = target;
  // Node::submit resets `remaining` to the full demand: the failed
  // attempt's work is lost.
  port_->submit(target, t);
}

sim::Time ProcessManager::recompute_deadline(const Run& run,
                                             std::uint32_t leaf_slot) {
  // Ancestor chain leaf -> root (cold path: fault retries only).
  std::vector<std::uint32_t> chain;
  for (std::uint32_t s = leaf_slot;;) {
    chain.push_back(s);
    const std::uint32_t p = run.flat.parent(s);
    if (p == FlatTree::kNoParent) break;
    s = p;
  }
  // Walk root -> leaf re-running the strategy at each composite with the
  // slack measured from now.  Serial stages use the chain child's index,
  // i.e. only the not-yet-finished remainder of the stage list contributes
  // demand.
  const sim::Time now = engine_.now();
  sim::Time deadline = run.real_deadline;
  for (std::size_t i = chain.size(); i-- > 1;) {
    const std::uint32_t composite = chain[i];
    const std::uint32_t child = chain[i - 1];
    const int index = static_cast<int>(run.flat.index_in_parent(child));
    deadline = run.flat.is_serial(composite)
                   ? assign_stage_deadline(*config_.ssp, run.flat, composite,
                                           index, now, deadline, ssp_scratch_)
                   : assign_branch_deadline(*config_.psp, run.flat, composite,
                                            index, now, deadline);
  }
  return deadline;
}

sim::Time ProcessManager::remaining_path_pex(const Run& run,
                                             std::uint32_t leaf_slot) const {
  sim::Time remaining = run.flat.node(leaf_slot).pred_exec;
  std::uint32_t child = leaf_slot;
  for (std::uint32_t p = run.flat.parent(child); p != FlatTree::kNoParent;
       p = run.flat.parent(child)) {
    if (run.flat.is_serial(p)) {
      // Later serial stages run after this subtree finishes; parallel
      // siblings proceed concurrently and do not extend this leaf's path.
      const std::uint32_t idx = run.flat.index_in_parent(child);
      const sim::Time* slice = run.flat.child_cp_pex(p);
      const std::uint32_t cnt = run.flat.child_count(p);
      for (std::uint32_t j = idx + 1; j < cnt; ++j) remaining += slice[j];
    }
    child = p;
  }
  return remaining;
}

int ProcessManager::failover_target(int origin) const {
  const int total = node_count();
  const int compute =
      config_.compute_node_count < 0 ? total : config_.compute_node_count;
  const int base = origin < compute ? 0 : compute;
  const int pool = origin < compute ? compute : total - compute;
  for (int j = 1; j < pool; ++j) {
    const int candidate = base + (origin - base + j) % pool;
    if (port_->is_up(candidate)) {
      return candidate;
    }
  }
  return origin;  // whole pool down: queue into the outage
}

}  // namespace sda::core
