// Runtime task instances: the unit a node's scheduler works with.
//
// A SimpleTask is either a *local* task (generated at one node, paper §3.1)
// or a *simple subtask* of a global task, dispatched by the process manager.
// Node ready queues order SimpleTasks by their virtual deadline; the process
// manager correlates subtask completions back to their global run via
// owner_run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/task/attributes.hpp"

namespace sda::task {

enum class TaskKind : std::uint8_t {
  kLocal,    ///< generated at a node, runs only there
  kSubtask,  ///< simple subtask of a global task
};

enum class TaskState : std::uint8_t {
  kCreated,    ///< constructed, not yet submitted
  kQueued,     ///< waiting in a node's scheduler queue
  kRunning,    ///< in service at a node
  kCompleted,  ///< finished service
  kAborted,    ///< removed before finishing (PM or local-scheduler abort)
  kFailed,     ///< killed by a fault (node crash or transient failure);
               ///< terminal unless the process manager retries it
};

/// True for states no further service will change (unless resubmitted).
inline bool is_terminal(TaskState s) noexcept {
  return s == TaskState::kCompleted || s == TaskState::kAborted ||
         s == TaskState::kFailed;
}

/// Converts a state to a short lowercase string (for logs and tests).
const char* to_string(TaskState s) noexcept;
const char* to_string(TaskKind k) noexcept;

struct SimpleTask {
  std::uint64_t id = 0;          ///< unique per experiment run
  TaskKind kind = TaskKind::kLocal;
  int exec_node = -1;            ///< node(X): where this must run
  Attributes attrs;
  TaskState state = TaskState::kCreated;

  /// Metrics class (metrics::TaskClass id): locals and globals of different
  /// sizes are reported separately (paper Fig. 12).
  int metrics_class = 0;

  /// Identifier of the owning global run; 0 for local tasks.  The process
  /// manager resolves this back to its bookkeeping record.
  std::uint64_t owner_run = 0;

  /// Slot of the originating leaf in the owning run's tree (TreeNode::slot
  /// at dispatch time); 0 for local tasks.  Lets the process manager index
  /// flat per-run arrays instead of hashing the task id.
  std::uint32_t leaf_slot = 0;

  /// If true, a local-scheduler abort policy must not abort this task (the
  /// paper's "special directives ... that subtasks are non-abortable
  /// locally", §7.3).
  bool non_abortable = false;

  /// Scheduler bookkeeping: current position in the owning
  /// sched::ReadyQueue's heap, enabling O(log n) removal without
  /// scanning.  kNotQueued while the task is not in any ready queue.
  /// Maintained by the ready queue; meaningless elsewhere.
  static constexpr std::uint32_t kNotQueued = 0xffffffffu;
  std::uint32_t queue_pos = kNotQueued;

  /// Remaining service demand; initialized to ex on submission, decremented
  /// on preemption (preemptive-resume ablation) and reset on resubmission.
  Time remaining = 0.0;

  // Trace timestamps (negative = not yet happened).
  Time submitted_at = -1.0;
  Time started_at = -1.0;
  Time finished_at = -1.0;

  /// Number of times this task entered service (>1 after local-abort
  /// resubmission or preemption).
  int service_attempts = 0;

  /// True when the task finished at or before its *real* deadline.
  bool met_real_deadline() const noexcept {
    return state == TaskState::kCompleted &&
           finished_at <= attrs.real_deadline;
  }
};

using TaskPtr = std::shared_ptr<SimpleTask>;

/// Convenience factory for a local task with virtual deadline == real one.
TaskPtr make_local_task(std::uint64_t id, int exec_node, Time arrival,
                        Time exec_time, Time deadline);

/// Convenience factory for a global subtask; the virtual deadline is set
/// later by the deadline-assignment strategy.
TaskPtr make_subtask(std::uint64_t id, std::uint64_t owner_run, int exec_node,
                     Time arrival, Time exec_time, Time pred_exec,
                     Time real_deadline);

}  // namespace sda::task
