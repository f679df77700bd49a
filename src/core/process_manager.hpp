// The process manager (paper §3.2, Figure 2).
//
// Newly created global tasks are handed to the process manager, which
//   1. assigns virtual deadlines to simple subtasks by running the SDA
//      algorithm (Figure 13) on-line — serial stages are assigned when the
//      preceding stage actually finishes;
//   2. submits simple subtasks to their execution nodes;
//   3. enforces precedence among subtasks; and
//   4. optionally aborts whole global tasks whose *real* deadline passed
//      (the §7.3 "abortion by process manager" regime, a timer per task),
//      and resubmits subtasks killed by local-scheduler aborts; and
//   5. recovers subtasks killed by injected faults (node crashes, transient
//      failures, message loss — see src/fault/) under a RecoveryPolicy:
//      bounded retries with optional backoff and failover, deadline-aware
//      SDA re-assignment on retry, and shedding of runs whose remaining
//      slack has gone negative.
//
// The process manager's own resource use is not modeled (charged to the
// tasks it manages, as in the paper).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/sda.hpp"
#include "src/sched/node.hpp"
#include "src/sim/engine.hpp"
#include "src/task/task.hpp"
#include "src/task/tree.hpp"
#include "src/util/arena.hpp"
#include "src/util/unique_fn.hpp"

namespace sda::core {

/// How the process manager handles tardy global tasks.
enum class PmAbortMode {
  kNone,          ///< keep going; late completions still count as misses
  kRealDeadline,  ///< abort all live subtasks when the real deadline passes
};

/// How a retried subtask's virtual deadline is chosen after a fault.
enum class RetryDeadline {
  /// Reuse the deadline assigned before the failure.  Cheap, but the
  /// deadline reflects slack that no longer exists — an expired virtual
  /// deadline jumps every queue it meets.
  kStale,
  /// Re-run the SDA strategy pair over the leaf's chain of ancestors with
  /// the slack left at *now* (serial stages contribute only their
  /// not-yet-finished remainder), so the retry competes with an honest
  /// deadline.
  kSdaRecompute,
};

/// Fault-recovery behavior of the process manager (src/fault/ injects the
/// faults; this decides what happens to the victims).
struct RecoveryPolicy {
  /// Fault retries allowed per global run; the (max+1)-th failure sheds
  /// the run.  0 = any fault kills the run.
  int max_retries_per_run = 4;
  /// Delay before the r-th retry of one leaf: backoff_base *
  /// backoff_factor^(r-1).  0 = resubmit immediately.
  double backoff_base = 0.0;
  double backoff_factor = 2.0;
  /// When the victim's node is down, resubmit to another up node of the
  /// same pool (compute or link) instead of queueing into the outage.
  bool failover = true;
  RetryDeadline deadline_mode = RetryDeadline::kSdaRecompute;
  /// Before retrying, compare the predicted remaining critical path with
  /// the slack left; shed the run when it cannot finish in time instead
  /// of burning service on doomed work.
  bool shed_negative_slack = true;
};

/// Terminal record of one global task run, delivered to the completion
/// handler (and from there to the metrics collector).
struct GlobalTaskRecord {
  std::uint64_t run_id = 0;
  int metrics_class = 0;
  sim::Time arrival = 0.0;
  sim::Time real_deadline = 0.0;
  sim::Time finished_at = 0.0;
  bool aborted = false;  ///< killed before completion (timer, cap, or shed)
  bool missed = false;   ///< aborted, or finished after the real deadline
  sim::Time total_work = 0.0;  ///< sum of ex over all simple subtasks
  int subtask_count = 0;
  int resubmissions = 0;  ///< local-abort resubmissions within this run
  int retries = 0;        ///< fault retries within this run
  bool shed = false;      ///< dropped by the recovery policy (subset of aborted)
};

/// The process manager's window onto the execution nodes.  The serial
/// runner uses DirectNodePort — synchronous calls into sched::Node,
/// exactly the original single-engine behavior.  The sharded runner
/// (exp/runner_sharded) substitutes a port that clones the task and
/// ships each call as a cross-lane fabric message, so the PM never
/// touches node-owned state from another shard.
class NodePort {
 public:
  virtual ~NodePort() = default;
  /// Number of execution nodes (compute + link).
  virtual int count() const = 0;
  /// Is @p node accepting work (i.e. not inside a crash outage)?
  virtual bool is_up(int node) const = 0;
  /// Hands a subtask to @p node's scheduler.
  virtual void submit(int node, const task::TaskPtr& t) = 0;
  /// Aborts a queued-or-running task; a no-op when the node no longer
  /// holds it (already completed, failed, or never delivered).
  virtual void abort(int node, const task::SimpleTask& t) = 0;
};

/// Synchronous port sharing task objects with the nodes (serial path).
class DirectNodePort final : public NodePort {
 public:
  explicit DirectNodePort(std::vector<sched::Node*> nodes);
  int count() const override {
    return static_cast<int>(nodes_.size());
  }
  bool is_up(int node) const override;
  void submit(int node, const task::TaskPtr& t) override;
  void abort(int node, const task::SimpleTask& t) override;

 private:
  std::vector<sched::Node*> nodes_;
};

class ProcessManager {
 public:
  struct Config {
    std::shared_ptr<const PspStrategy> psp;
    std::shared_ptr<const SspStrategy> ssp;
    PmAbortMode abort_mode = PmAbortMode::kNone;
    /// §7.3: "special directives ... specifying that subtasks are
    /// non-abortable locally".  When set, subtasks are exempt from
    /// local-scheduler abort policies.
    bool mark_subtasks_non_abortable = false;
    /// Hard cap on local-abort resubmissions per run: when a local abort
    /// arrives with the budget exhausted, the whole run is aborted instead
    /// of resubmitting (graceful degradation).  Resubmitted subtasks are
    /// also marked non-abortable, so each subtask aborts locally at most
    /// once and every surviving run terminates; see handle_local_abort.
    int max_resubmissions_per_run = 64;
    /// Fault recovery (only consulted when src/fault/ injects failures).
    RecoveryPolicy recovery;
    /// Nodes [0, compute_node_count) are compute nodes, the rest are link
    /// nodes; failover stays within the victim's pool.  -1 = all compute.
    int compute_node_count = -1;
  };

  using GlobalHandler = util::UniqueFn<void(const GlobalTaskRecord&)>;
  /// Invoked when a simple subtask reaches a terminal state: completed, or
  /// aborted with no resubmission to follow.
  using SubtaskHandler = util::UniqueFn<void(const task::SimpleTask&)>;
  /// Invoked when submit() accepts a run, before its first subtask is
  /// dispatched (tracing only — observers must not touch the simulation).
  using SubmitObserver =
      util::UniqueFn<void(std::uint64_t run_id, sim::Time deadline)>;

  /// @p nodes is indexed by TreeNode::exec_node; the runner wires each
  /// node's outcome handler to handle_outcome for subtask-kind tasks.
  /// Wraps the nodes in an owned DirectNodePort (the serial path).
  ProcessManager(sim::Engine& engine, std::vector<sched::Node*> nodes,
                 Config config);

  /// Port-based constructor: all node interaction goes through @p port
  /// (which must outlive the manager).  Used by the sharded runner.
  ProcessManager(sim::Engine& engine, NodePort& port, Config config);

  ProcessManager(const ProcessManager&) = delete;
  ProcessManager& operator=(const ProcessManager&) = delete;

  void set_global_handler(GlobalHandler h) { on_global_ = std::move(h); }
  void set_subtask_handler(SubtaskHandler h) { on_subtask_ = std::move(h); }
  void set_submit_observer(SubmitObserver o) { on_submitted_ = std::move(o); }

  /// Accepts a global task whose structure (and per-leaf ex/pex) is already
  /// drawn.  @p deadline is the end-to-end real deadline dl(T); arrival is
  /// the engine's current time.  Returns the run id.
  std::uint64_t submit(task::TreePtr tree, sim::Time deadline,
                       int global_metrics_class, int subtask_metrics_class);

  /// Node outcome callback: a subtask left its node.  A completion
  /// advances precedence, a local abort resubmits (§7.3), a failure
  /// applies the RecoveryPolicy — retry, fail over, or shed.  Ignores
  /// tasks that are not subtasks and outcomes for runs or subtasks the
  /// manager no longer tracks.
  void handle_outcome(const task::TaskPtr& t, sched::Node::Outcome outcome);

  /// Sharded-runner entry point: a node lane reported an outcome as a
  /// value snapshot.  Copies the snapshot over the manager's own task
  /// object (keyed by snapshot.id) and handles it as handle_outcome does;
  /// drops snapshots the manager no longer tracks (the run ended while
  /// the message was in flight — legitimate under message latency).
  void handle_remote(const task::SimpleTask& snapshot,
                     sched::Node::Outcome outcome);

  const Config& config() const noexcept { return config_; }

  // --- statistics ---------------------------------------------------------
  std::size_t live_runs() const noexcept { return runs_.size(); }
  std::uint64_t submitted() const noexcept { return submitted_; }
  /// The id submit() will assign next — lets an admission gate register
  /// a run under its eventual id before handing the tree over.
  std::uint64_t next_run_id() const noexcept { return next_run_id_; }
  std::uint64_t completed_runs() const noexcept { return completed_runs_; }
  std::uint64_t aborted_runs() const noexcept { return aborted_runs_; }
  std::uint64_t resubmissions() const noexcept { return resubmissions_; }
  std::uint64_t fault_retries() const noexcept { return fault_retries_; }
  std::uint64_t failovers() const noexcept { return failovers_; }
  std::uint64_t shed_runs() const noexcept { return shed_runs_; }

 private:
  /// One global-task run's bookkeeping.  All per-node state is held in
  /// dense vectors indexed by the tree's FlatTree slot (DFS preorder), and
  /// node callbacks are correlated through SimpleTask::leaf_slot — no hash
  /// maps anywhere on the dispatch/completion path.  Run objects (and the
  /// vector capacities plus the FlatTree arena inside) are recycled
  /// through a small pool, so steady-state submit/complete allocates
  /// nothing beyond the task objects themselves.
  struct Run {
    std::uint64_t id = 0;
    task::TreePtr tree;
    task::FlatTree flat;  ///< slot-indexed view over *tree
    sim::Time arrival = 0.0;
    sim::Time real_deadline = 0.0;
    int metrics_class = 0;
    int subtask_metrics_class = 0;
    sim::Time total_work = 0.0;
    int subtask_count = 0;
    int resubmissions = 0;
    int retries = 0;
    int live_count = 0;         ///< non-null entries in `live`
    int retry_timer_count = 0;  ///< armed entries in `retry_timers`

    // Slot-indexed state, sized flat.size() by arm():
    /// Virtual deadline assigned to each dispatched node.
    std::vector<sim::Time> assigned_deadline;
    /// Serial composite: next child to dispatch.  Parallel composite:
    /// children not yet done.  (A slot is one or the other, never both.)
    std::vector<int> progress;
    /// Live (queued or running) subtask of each leaf slot; null otherwise.
    std::vector<task::TaskPtr> live;
    /// Fault retries per leaf (drives the per-leaf backoff schedule).
    std::vector<int> leaf_retries;
    /// Pending backoff-retry timers per leaf.  Every terminal path cancels
    /// them (finish_run), so a shed run can never leave a timer behind to
    /// fire against recycled state.
    std::vector<sim::EventId> retry_timers;

    sim::EventId abort_timer;

    /// Sizes and zeroes the slot-indexed vectors for a tree of @p n nodes.
    void arm(std::uint32_t n);
  };

  /// Map lookup with a one-entry cache: a run's subtasks complete (or
  /// abort) in bursts, so consecutive callbacks overwhelmingly target the
  /// run just looked up.  Invalidated when the cached run retires.
  Run* find_run(std::uint64_t run_id);
  /// The run whose live subtask @p t is; null for non-subtasks and stale
  /// outcomes (the run ended, or the subtask was replaced).
  Run* live_run(const task::SimpleTask& t) {
    if (t.kind != task::TaskKind::kSubtask) return nullptr;
    Run* run = find_run(t.owner_run);
    if (run == nullptr) return nullptr;  // run already finished/aborted
    return live_task(*run, t.leaf_slot, t.id) != nullptr ? run : nullptr;
  }
  /// handle_outcome's bodies, for a live subtask of @p run.
  void handle_completion(Run& run, const task::TaskPtr& t);
  void handle_local_abort(Run& run, const task::TaskPtr& t);
  void handle_failure(Run& run, const task::TaskPtr& t);
  /// Fresh-or-recycled Run; pairs with recycle_run().
  std::unique_ptr<Run> acquire_run();
  void recycle_run(std::unique_ptr<Run> run);
  void dispatch(Run& run, std::uint32_t slot, sim::Time deadline);
  void dispatch_serial_stage(Run& run, std::uint32_t serial_slot);
  void dispatch_leaf(Run& run, std::uint32_t leaf_slot, sim::Time deadline);
  void child_done(Run& run, std::uint32_t child_slot);
  void finish_run(Run& run, bool aborted, bool shed = false);
  void abort_run(std::uint64_t run_id);
  /// Aborts every live subtask and finishes the run (timer abort, local-
  /// abort cap, or recovery shed).
  void terminate_run(Run& run, bool shed);
  void resubmit_retry(Run& run, std::uint32_t leaf_slot,
                      const task::TaskPtr& t);
  /// SDA re-run for one leaf: fresh virtual deadline computed from the
  /// root's real deadline down the leaf's ancestor chain at time `now`.
  sim::Time recompute_deadline(const Run& run, std::uint32_t leaf_slot);
  /// Predicted critical-path demand still ahead of @p leaf_slot (its own
  /// pex plus every not-yet-dispatched later serial stage up the chain).
  sim::Time remaining_path_pex(const Run& run, std::uint32_t leaf_slot) const;
  /// The run's live subtask for @p leaf_slot iff it is the task @p id
  /// (stale callbacks for finished/replaced subtasks resolve to null).
  static task::TaskPtr* live_task(Run& run, std::uint32_t leaf_slot,
                                  std::uint64_t id) {
    if (leaf_slot >= run.flat.size()) return nullptr;
    task::TaskPtr& t = run.live[leaf_slot];
    return (t && t->id == id) ? &t : nullptr;
  }
  /// Up node in the same pool (compute/link) as @p origin, or origin when
  /// none is up.
  int failover_target(int origin) const;

  int node_count() const { return port_->count(); }

  sim::Engine& engine_;
  /// Set when constructed from raw nodes (serial path); port_ points at
  /// it.  The port-based constructor leaves it empty.
  std::unique_ptr<NodePort> owned_port_;
  NodePort* port_ = nullptr;
  Config config_;

  /// Keyed by run id; the node allocations ride the thread-local size-class
  /// pool so steady-state submit/finish does not touch the global allocator.
  std::unordered_map<
      std::uint64_t, std::unique_ptr<Run>, std::hash<std::uint64_t>,
      std::equal_to<std::uint64_t>,
      util::PoolAllocator<std::pair<const std::uint64_t, std::unique_ptr<Run>>>>
      runs_;
  /// Retired Run objects kept for reuse (bounded; see kRunPoolCap).
  std::vector<std::unique_ptr<Run>> run_pool_;
  /// One-entry find_run cache; never dangles (cleared in finish_run).
  Run* cached_run_ = nullptr;
  /// Scratch stage-assignment context: remaining_pex keeps its capacity
  /// across every serial-stage dispatch this manager performs.
  SspContext ssp_scratch_;
  std::uint64_t next_run_id_ = 1;
  std::uint64_t next_task_id_ = 1;

  GlobalHandler on_global_;
  SubtaskHandler on_subtask_;
  SubmitObserver on_submitted_;

  std::uint64_t submitted_ = 0;
  std::uint64_t completed_runs_ = 0;
  std::uint64_t aborted_runs_ = 0;
  std::uint64_t resubmissions_ = 0;
  std::uint64_t fault_retries_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t shed_runs_ = 0;
};

}  // namespace sda::core
