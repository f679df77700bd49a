#include "src/sched/ready_queue.hpp"

#include <bit>
#include <stdexcept>
#include <utility>

#include "src/core/invariants.hpp"

namespace sda::sched {

Policy parse_policy(const std::string& name) {
  if (name == "edf" || name == "EDF") return Policy::kEdf;
  if (name == "fifo" || name == "FIFO") return Policy::kFifo;
  if (name == "spt" || name == "SPT") return Policy::kSpt;
  if (name == "llf" || name == "LLF") return Policy::kLlf;
  throw std::invalid_argument("unknown scheduling policy: " + name);
}

const char* to_string(Policy p) noexcept {
  switch (p) {
    case Policy::kEdf: return "EDF";
    case Policy::kFifo: return "FIFO";
    case Policy::kSpt: return "SPT";
    case Policy::kLlf: return "LLF";
  }
  return "?";
}

void ReadyQueue::push(TaskPtr t) {
  const std::size_t pos = heap_.size();
  t->queue_pos = static_cast<std::uint32_t>(pos);
  const double key = key_of(policy_, *t);
  // One entry per live task: bounded upstream by the admission gate and
  // the workload horizon.
  heap_.push_back(Entry{key, ++seq_, std::move(t)});
  sift_up(pos);
  if (core::invariants::enabled()) oracle_after_mutation();
}

TaskPtr ReadyQueue::pop() {
  if (heap_.empty()) return nullptr;
  return remove_at(0);
}

TaskPtr ReadyQueue::remove(const task::SimpleTask& t) {
  const std::uint32_t pos = t.queue_pos;
  if (pos == task::SimpleTask::kNotQueued || pos >= heap_.size() ||
      heap_[pos].task.get() != &t) {
    return nullptr;
  }
  return remove_at(pos);
}

void ReadyQueue::validate() const {
  namespace oracle = core::invariants;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const Entry& e = heap_[i];
    if (e.task == nullptr) {
      oracle::fail("task-heap-null-entry",
                   oracle::Dump().integer("index", static_cast<long long>(i)));
    }
    if (e.task->queue_pos != i) {
      oracle::fail(
          "task-heap-queue-pos-identity",
          oracle::Dump()
              .integer("index", static_cast<long long>(i))
              .integer("queue_pos", static_cast<long long>(e.task->queue_pos))
              .integer("task_id", static_cast<long long>(e.task->id))
              .integer("size", static_cast<long long>(heap_.size())));
    }
    const double now_key = key_of(policy_, *e.task);
    if (std::bit_cast<std::uint64_t>(now_key) !=
        std::bit_cast<std::uint64_t>(e.key)) {
      oracle::fail("task-heap-stale-key",
                   oracle::Dump()
                       .integer("index", static_cast<long long>(i))
                       .integer("task_id", static_cast<long long>(e.task->id))
                       .str("policy", to_string(policy_))
                       .num("stored_key", e.key)
                       .num("task_key", now_key));
    }
    if (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (less(e, heap_[parent])) {
        oracle::fail(
            "task-heap-order",
            oracle::Dump()
                .integer("index", static_cast<long long>(i))
                .integer("task_id", static_cast<long long>(e.task->id))
                .integer("parent_task_id",
                         static_cast<long long>(heap_[parent].task->id))
                .integer("size", static_cast<long long>(heap_.size())));
      }
    }
  }
}

void ReadyQueue::oracle_after_mutation() {
  // Same cadence rationale as EventQueue::oracle_after_mutation():
  // every mutation while small, every 64th when an overloaded queue
  // grows long, keeping validation from going quadratic.
  ++mutations_;
  if (heap_.size() <= 64 || (mutations_ & 63) == 0) validate();
}

TaskPtr ReadyQueue::remove_at(std::size_t pos) {
  TaskPtr out = std::move(heap_[pos].task);
  out->queue_pos = task::SimpleTask::kNotQueued;
  const std::size_t last = heap_.size() - 1;
  if (pos != last) {
    heap_[pos] = std::move(heap_[last]);
    heap_[pos].task->queue_pos = static_cast<std::uint32_t>(pos);
    heap_.pop_back();
    sift_down(pos);
    sift_up(pos);
  } else {
    heap_.pop_back();
  }
  if (core::invariants::enabled()) oracle_after_mutation();
  return out;
}

void ReadyQueue::sift_up(std::size_t pos) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!less(heap_[pos], heap_[parent])) break;
    swap_entries(pos, parent);
    pos = parent;
  }
}

void ReadyQueue::sift_down(std::size_t pos) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = 4 * pos + 1;
    if (first >= n) break;
    std::size_t best = pos;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first; c < end; ++c) {
      if (less(heap_[c], heap_[best])) best = c;
    }
    if (best == pos) break;
    swap_entries(pos, best);
    pos = best;
  }
}

void ReadyQueue::swap_entries(std::size_t a, std::size_t b) {
  std::swap(heap_[a], heap_[b]);
  heap_[a].task->queue_pos = static_cast<std::uint32_t>(a);
  heap_[b].task->queue_pos = static_cast<std::uint32_t>(b);
}

}  // namespace sda::sched
