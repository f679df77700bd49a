// A node's ready queue: the waiting tasks, ordered by one policy key.
//
// Every local policy is "serve the smallest key first, ties in arrival
// order", with a key that does not change while the task waits:
//
//   EDF   virtual deadline (the paper's local policy; the PSP/SSP
//         strategies work only by choosing the deadline EDF sees)
//   FIFO  a constant, so arrival order alone decides
//   SPT   predicted execution time
//   LLF   virtual deadline - predicted execution time.  Laxity is
//         deadline - now - predicted work, and `now` is common to every
//         queued task, so non-preemptive LLF reduces to this static key.
//
// FIFO, SPT and LLF are substrate ablations (bench/ablation_scheduler_
// policy).  The queue is policy only: timing, service and abortion live
// in sched::Node.
//
// The structure is an indexed 4-ary min-heap of {key, seq, task} entries.
// push() computes the key once; seq is the queue's own push counter, so
// equal keys pop in push order and the pop order is deterministic.  Each
// task carries a back-link (SimpleTask::queue_pos) to its entry, so
// remove() -- driven by abort timers and the process manager's deadline
// enforcement -- finds it in O(1) and repairs the heap in O(log n).
// Pushes are allocation-free once the vector has warmed up.  Singh's
// EDF-complexity argument (PAPERS.md) applies directly: the queue's data
// structure, not its policy, is the cost.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/task/task.hpp"

namespace sda::sched {

using task::TaskPtr;

enum class Policy : std::uint8_t { kEdf, kFifo, kSpt, kLlf };

/// Parses a policy name ("edf"/"EDF", "fifo"/"FIFO", "spt"/"SPT",
/// "llf"/"LLF"); throws std::invalid_argument on any other name.
Policy parse_policy(const std::string& name);

/// Report name: "EDF", "FIFO", "SPT" or "LLF".
const char* to_string(Policy p) noexcept;

class ReadyQueue {
 public:
  explicit ReadyQueue(Policy policy = Policy::kEdf) noexcept
      : policy_(policy) {}

  /// The ordering key @p policy gives @p t.
  static double key_of(Policy policy, const task::SimpleTask& t) noexcept {
    switch (policy) {
      case Policy::kEdf: return t.attrs.virtual_deadline;
      case Policy::kFifo: return 0.0;
      case Policy::kSpt: return t.attrs.pred_exec;
      case Policy::kLlf:
        return t.attrs.virtual_deadline - t.attrs.pred_exec;
    }
    return 0.0;
  }

  /// Adds a task; its key is fixed from here until it leaves.
  void push(TaskPtr t);

  /// Removes and returns the task to serve next; nullptr when empty.
  TaskPtr pop();

  /// The task pop() would return, without removing it; nullptr when empty.
  const task::SimpleTask* peek() const noexcept {
    return heap_.empty() ? nullptr : heap_.front().task.get();
  }

  /// Removes a specific queued task in O(log n) via its back-link.
  /// Returns the owning pointer, or nullptr when @p t is not queued here
  /// (the position check plus pointer comparison rejects tasks queued in
  /// another queue or not queued at all).
  TaskPtr remove(const task::SimpleTask& t);

  std::size_t size() const noexcept { return heap_.size(); }
  bool empty() const noexcept { return heap_.empty(); }

  /// SDA_VALIDATE oracle: verifies over the whole structure that no entry
  /// is null, the queue_pos back-link identity (entry i's task has
  /// queue_pos == i), that each stored key still equals its task's policy
  /// key (an in-place rewrite of a queued task's deadline or prediction
  /// breaks this), and heap order.  O(n); aborts with a structured dump on
  /// violation.  Mutations invoke it on a deterministic cadence when the
  /// oracle is enabled; tests may call it directly.
  void validate() const;

 private:
  struct Entry {
    double key;
    std::uint64_t seq;
    TaskPtr task;
  };

  static bool less(const Entry& a, const Entry& b) noexcept {
    if (a.key != b.key) return a.key < b.key;
    return a.seq < b.seq;
  }

  TaskPtr remove_at(std::size_t pos);
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  void swap_entries(std::size_t a, std::size_t b);
  void oracle_after_mutation();

  std::vector<Entry> heap_;
  Policy policy_;
  std::uint64_t seq_ = 0;        ///< push counter: FIFO tie-break
  std::uint64_t mutations_ = 0;  ///< drives the SDA_VALIDATE cadence
};

}  // namespace sda::sched
