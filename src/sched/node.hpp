// A processing node: single server + ready queue + independent scheduler.
//
// This models one system component (database, expert system, a network
// link, ...) from the paper's Figure 2.  Nodes are fully independent: the
// only information a node acts on is the tasks submitted to it and their
// (virtual) deadline attributes — there is no cross-node coordination.
//
// Service is non-preemptive by default (the queue is consulted only when
// the server frees up); Config::preemptive enables preemptive-resume EDF
// for the substrate ablation, and so requires Policy::kEdf.
//
// Fault injection (src/fault/): a node can crash() and later recover(),
// and an optional FaultHook lets the injector fail individual service
// attempts partway (transient failures, message loss) or stretch them
// (link jitter).  With no hook installed and no crashes scheduled, the
// node's behavior — including its event and RNG footprint — is exactly
// the fail-free model.
//
// Lane affinity (sharded execution, DESIGN.md §4c): a Node is not
// thread-safe and never needs to be.  Under the time-window fabric, node
// i plus everything that touches it synchronously — its engine events,
// local source, fault hooks, abort timers, handlers — lives on lane i,
// which is owned by exactly one shard thread.  Cross-lane parties (the
// process manager) interact with a node only through fabric messages
// executed on its lane, and observe its status only through the static
// NodeStatusBoard, never by calling into the node from another shard.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "src/sched/abort_policy.hpp"
#include "src/sched/ready_queue.hpp"
#include "src/sim/engine.hpp"
#include "src/util/unique_fn.hpp"

namespace sda::sched {

class Node {
 public:
  struct Config {
    int index = 0;  ///< node identity (for task placement and reports)
    Policy policy = Policy::kEdf;  ///< ready-queue order
    LocalAbortPolicy abort_policy = LocalAbortPolicy::kNone;
    /// Preemptive-resume EDF (ablation): an arrival with an earlier
    /// virtual deadline preempts the task in service.  EDF only.
    bool preemptive = false;
    /// Relative processing speed: a task with remaining demand r occupies
    /// the server for r/speed time units.  1.0 = the paper's homogeneous
    /// system; the heterogeneous-nodes ablation varies this per node.
    double speed = 1.0;
  };

  /// How a task left the node (paper §3.2: what the node tells the
  /// process manager).
  enum class Outcome : std::uint8_t {
    kCompleted,   ///< finished service (state kCompleted)
    kLocalAbort,  ///< killed by the local abort policy (state kAborted)
    kFailed,      ///< killed by a fault: transient failure or crash (kFailed)
  };
  /// Called once for every task that leaves the node, except through an
  /// external abort() (its caller already knows).  After a completion or
  /// a local abort the handler runs before the node picks its next job;
  /// after a transient failure the node has already picked it.
  using OutcomeHandler = util::UniqueFn<void(const TaskPtr&, Outcome)>;

  /// Fault-injection verdict for one service attempt (see set_fault_hook).
  struct ServiceFault {
    /// Extra wall time added to this service leg (e.g. link jitter); the
    /// server stays occupied for it but no demand is consumed.
    double extra_delay = 0.0;
    /// Wall-time offset into the (delay-extended) leg at which the attempt
    /// fails, wasting the work done; negative = the attempt completes.
    double fail_after = -1.0;
  };
  /// Consulted once per service start with the task and the nominal leg
  /// duration (remaining/speed).  Unset = fault-free (zero overhead).
  using FaultHook =
      util::UniqueFn<ServiceFault(const task::SimpleTask&, double)>;

  /// Fine-grained lifecycle notifications for tracing/instrumentation.
  enum class Event : std::uint8_t {
    kSubmitted,
    kStarted,
    kPreempted,
    kCompleted,
    kAborted,  ///< local-policy or external abort
    kFailed,   ///< killed by a fault (transient failure or node crash)
  };
  using Observer = util::UniqueFn<void(Event, const task::SimpleTask&)>;

  Node(sim::Engine& engine, Config config);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  int index() const noexcept { return config_.index; }
  const Config& config() const noexcept { return config_; }

  void set_outcome_handler(OutcomeHandler h) { on_outcome_ = std::move(h); }

  /// Installs a lifecycle observer (nullptr-able). Zero overhead when unset.
  void set_observer(Observer o) { observer_ = std::move(o); }

  /// Installs the fault-injection hook (nullptr-able).  With no hook the
  /// node is fail-free and behaves exactly as before.
  void set_fault_hook(FaultHook h) { fault_hook_ = std::move(h); }

  /// Accepts a task for execution.  Requires t->exec_node == index().
  /// The node takes shared ownership until completion or abort.
  void submit(TaskPtr t);

  /// Externally aborts a queued or in-service task (used by the process
  /// manager's real-deadline timers).  Marks it kAborted and releases the
  /// server if it was running.  Returns false when the task is not here
  /// (already finished or never submitted).
  bool abort(const task::SimpleTask& t);

  /// Task currently in service; nullptr when idle.
  const task::SimpleTask* in_service() const noexcept {
    return current_.get();
  }

  std::size_t queue_length() const noexcept { return ready_.size(); }

  // --- crash / recovery -------------------------------------------------
  /// True while the node is operational (the initial state).
  bool is_up() const noexcept { return up_; }

  /// Takes the node down.  The in-service task (if any) fails — its work
  /// is lost — and, when @p discard_queue is set, every queued task fails
  /// too; otherwise the queue is frozen until recover().  Tasks submitted
  /// while down are queued but not served.  No-op when already down.
  void crash(bool discard_queue);

  /// Brings the node back up and resumes service. No-op when already up.
  void recover();

  // --- statistics -------------------------------------------------------
  /// Always-on lightweight perf counters, snapshotted into RunResult at
  /// the end of every replication.  All fields are O(1) increments or max
  /// updates on paths the node already touches — no events are scheduled
  /// and no RNG is drawn, so counters can never perturb a run's
  /// determinism fingerprint.  Queue-depth mean is *sampled* on the same
  /// deterministic cadence as the SDA_VALIDATE oracle (every 64th
  /// submission) rather than time-weighted, keeping the hot path to one
  /// mask-and-branch.
  struct PerfCounters {
    int node = -1;
    double busy_time = 0.0;
    double idle_time = 0.0;   ///< elapsed - busy at snapshot time
    double utilization = 0.0;
    std::uint64_t submissions = 0;
    std::uint64_t completed = 0;
    std::uint64_t aborted_locally = 0;
    std::uint64_t aborted_externally = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t failed = 0;
    std::uint64_t crashes = 0;
    std::size_t queue_high_water = 0;  ///< max ready-queue length observed
    /// Abort-timer churn: timers armed / cancelled before firing.  High
    /// churn means the local-abort policy is mostly paying bookkeeping for
    /// tasks that finish in time.
    std::uint64_t abort_timers_armed = 0;
    std::uint64_t abort_timers_cancelled = 0;
    /// Sampled queue-depth statistics (every 64th submission).
    std::uint64_t queue_depth_samples = 0;
    double queue_depth_mean = 0.0;
  };

  /// Snapshot of the node's perf counters at the current simulation time.
  PerfCounters perf_counters() const noexcept;

  std::uint64_t completed() const noexcept { return completed_; }
  std::uint64_t aborted_locally() const noexcept { return aborted_locally_; }
  std::uint64_t aborted_externally() const noexcept {
    return aborted_externally_;
  }
  std::uint64_t preemptions() const noexcept { return preemptions_; }
  std::uint64_t failed() const noexcept { return failed_; }
  std::uint64_t crashes() const noexcept { return crashes_; }

  /// Total time the server has been busy (including work later aborted).
  sim::Time busy_time() const noexcept;

  /// busy_time / elapsed — the node's utilization so far.
  double utilization() const noexcept;

  /// Time-average number of tasks at the node (queue + in service);
  /// used by the Little's-law validation tests.
  double mean_tasks_in_system() const noexcept;

 private:
  void try_start();
  void start_service(TaskPtr t);
  void finish_service();
  void fail_service();
  /// Stops the in-service task where it stands: cancels its completion
  /// event, charges the leg's busy time and credits the work done against
  /// its remaining demand.  Returns the task; the server is then idle.
  TaskPtr interrupt_service();
  /// Bookkeeping for a task leaving the node: disarms its abort timer,
  /// stamps @p state and the finish time, updates the population and
  /// @p counter, and notifies the observer.  Runs no handler.  Defined
  /// here so the completion path inlines it.
  void retire(task::SimpleTask& t, task::TaskState state,
              std::uint64_t& counter, Event event) {
    disarm_abort_timer(t);
    t.state = state;
    t.finished_at = engine_.now();
    note_population_change(-1);
    ++counter;
    notify(event, t);
  }
  void preempt_current();
  void local_abort(const TaskPtr& t);
  void arm_abort_timer(const TaskPtr& t);
  void disarm_abort_timer(const task::SimpleTask& t);
  void note_population_change(int delta);

  sim::Engine& engine_;
  Config config_;
  ReadyQueue ready_;

  TaskPtr current_;                 ///< task in service, if any
  sim::Time service_started_ = 0.0; ///< when the current service leg began
  sim::EventId completion_event_;
  bool up_ = true;                  ///< false between crash() and recover()

  /// Local-abort timers, keyed by task id.
  std::unordered_map<std::uint64_t, sim::EventId> abort_timers_;

  OutcomeHandler on_outcome_;
  Observer observer_;
  FaultHook fault_hook_;

  void notify(Event e, const task::SimpleTask& t) {
    if (observer_) observer_(e, t);
  }
  void report(const TaskPtr& t, Outcome o) {
    if (on_outcome_) on_outcome_(t, o);
  }

  std::uint64_t completed_ = 0;
  std::uint64_t aborted_locally_ = 0;
  std::uint64_t aborted_externally_ = 0;
  std::uint64_t preemptions_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t crashes_ = 0;
  sim::Time busy_accum_ = 0.0;

  // Perf-counter bookkeeping (see PerfCounters).
  std::uint64_t submissions_ = 0;
  std::size_t queue_high_water_ = 0;
  std::uint64_t abort_timers_armed_ = 0;
  std::uint64_t abort_timers_cancelled_ = 0;
  std::uint64_t depth_samples_ = 0;
  double depth_sample_sum_ = 0.0;

  // Time-weighted population accounting for Little's law.
  int population_ = 0;
  sim::Time pop_area_ = 0.0;
  sim::Time pop_last_change_ = 0.0;
};

}  // namespace sda::sched
