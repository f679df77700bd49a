#include "src/sched/node.hpp"

#include <cassert>
#include <stdexcept>
#include <vector>

namespace sda::sched {

using task::TaskState;

Node::Node(sim::Engine& engine, Config config)
    : engine_(engine), config_(config), ready_(config.policy) {
  if (config_.preemptive && config_.policy != Policy::kEdf) {
    throw std::invalid_argument("preemptive service requires the EDF policy");
  }
  if (!(config_.speed > 0.0)) {
    throw std::invalid_argument("Node speed must be positive");
  }
}

void Node::note_population_change(int delta) {
  const sim::Time now = engine_.now();
  pop_area_ += static_cast<sim::Time>(population_) * (now - pop_last_change_);
  pop_last_change_ = now;
  population_ += delta;
  assert(population_ >= 0);
}

void Node::submit(TaskPtr t) {
  if (!t) throw std::invalid_argument("Node::submit: null task");
  if (t->exec_node != config_.index) {
    throw std::logic_error("Node::submit: task destined for another node");
  }
  t->state = TaskState::kQueued;
  t->submitted_at = engine_.now();
  t->remaining = t->attrs.exec_time;
  note_population_change(+1);
  ++submissions_;
  // +1: the submitted task is about to join the ready queue (or the
  // server), so count it in the depth observed at this instant.
  const std::size_t depth = ready_.size() + 1;
  if (depth > queue_high_water_) queue_high_water_ = depth;
  if ((submissions_ & 63) == 0) {  // the oracle's deterministic cadence
    ++depth_samples_;
    depth_sample_sum_ += static_cast<double>(depth);
  }
  notify(Event::kSubmitted, *t);

  if (config_.abort_policy == LocalAbortPolicy::kAbortOnVirtualDeadline &&
      !t->non_abortable) {
    if (t->attrs.virtual_deadline <= engine_.now()) {
      // Already expired on arrival: abort without consuming any service.
      local_abort(t);
      return;
    }
    arm_abort_timer(t);
  }

  if (config_.preemptive && current_ &&
      t->attrs.virtual_deadline < current_->attrs.virtual_deadline) {
    preempt_current();
  }
  ready_.push(std::move(t));
  try_start();
}

void Node::try_start() {
  if (current_ || !up_) return;
  TaskPtr next = ready_.pop();
  if (!next) return;
  start_service(std::move(next));
}

void Node::start_service(TaskPtr t) {
  assert(!current_ && up_);
  current_ = std::move(t);
  current_->state = TaskState::kRunning;
  if (current_->started_at < 0.0) current_->started_at = engine_.now();
  ++current_->service_attempts;
  service_started_ = engine_.now();
  double duration = current_->remaining / config_.speed;
  bool will_fail = false;
  if (fault_hook_) {
    const ServiceFault f = fault_hook_(*current_, duration);
    if (f.extra_delay > 0.0) duration += f.extra_delay;
    if (f.fail_after >= 0.0 && f.fail_after < duration) {
      duration = f.fail_after;
      will_fail = true;
    }
  }
  completion_event_ = engine_.in(duration, [this, will_fail] {
    will_fail ? fail_service() : finish_service();
  });
  notify(Event::kStarted, *current_);
}

void Node::finish_service() {
  assert(current_);
  busy_accum_ += engine_.now() - service_started_;
  TaskPtr done = std::move(current_);
  done->remaining = 0.0;
  retire(*done, TaskState::kCompleted, completed_, Event::kCompleted);
  report(done, Outcome::kCompleted);
  try_start();
}

void Node::fail_service() {
  assert(current_);
  // The work invested in the failed attempt is lost.
  busy_accum_ += engine_.now() - service_started_;
  TaskPtr victim = std::move(current_);
  retire(*victim, TaskState::kFailed, failed_, Event::kFailed);
  // Pick the next job before the failure is reported: an immediate retry
  // then joins the queue behind that pick, exactly as it does when it
  // arrives by message on the sharded fabric.
  try_start();
  report(victim, Outcome::kFailed);
}

TaskPtr Node::interrupt_service() {
  assert(current_);
  engine_.cancel(completion_event_);
  const sim::Time elapsed = engine_.now() - service_started_;
  busy_accum_ += elapsed;
  current_->remaining -= elapsed * config_.speed;
  if (current_->remaining < 0.0) current_->remaining = 0.0;
  return std::move(current_);
}

void Node::crash(bool discard_queue) {
  if (!up_) return;
  up_ = false;
  ++crashes_;
  auto fail = [this](const TaskPtr& t) {
    retire(*t, TaskState::kFailed, failed_, Event::kFailed);
    report(t, Outcome::kFailed);
  };
  if (current_) fail(interrupt_service());
  if (discard_queue) {
    // Snapshot first: a failure handler may resubmit a victim right back to
    // this (down) node, and that retry belongs to the post-crash queue, not
    // to the set being discarded.
    std::vector<TaskPtr> victims;
    while (TaskPtr queued = ready_.pop()) {
      victims.push_back(std::move(queued));
    }
    for (const TaskPtr& queued : victims) fail(queued);
  }
}

void Node::recover() {
  if (up_) return;
  up_ = true;
  try_start();
}

void Node::preempt_current() {
  TaskPtr preempted = interrupt_service();
  preempted->state = TaskState::kQueued;
  ++preemptions_;
  notify(Event::kPreempted, *preempted);
  ready_.push(std::move(preempted));
}

void Node::arm_abort_timer(const TaskPtr& t) {
  // Capture a weak_ptr: the timer must not keep an otherwise-finished task
  // alive, and must do nothing if the task already left the node.
  std::weak_ptr<task::SimpleTask> weak = t;
  ++abort_timers_armed_;
  abort_timers_[t->id] =
      engine_.at(t->attrs.virtual_deadline, [this, weak] {
        TaskPtr locked = weak.lock();
        if (!locked) return;
        abort_timers_.erase(locked->id);
        if (locked->state == TaskState::kQueued ||
            locked->state == TaskState::kRunning) {
          local_abort(locked);
        }
      });
}

void Node::disarm_abort_timer(const task::SimpleTask& t) {
  auto it = abort_timers_.find(t.id);
  if (it == abort_timers_.end()) return;
  engine_.cancel(it->second);
  abort_timers_.erase(it);
  ++abort_timers_cancelled_;
}

void Node::local_abort(const TaskPtr& t) {
  if (t->state == TaskState::kRunning) {
    assert(current_.get() == t.get());
    interrupt_service();  // the work invested in the victim is wasted
  } else if (t->state == TaskState::kQueued) {
    // Remove from the ready queue if it is there (it may not be, in the
    // expired-on-arrival path).
    ready_.remove(*t);
  }
  retire(*t, TaskState::kAborted, aborted_locally_, Event::kAborted);
  report(t, Outcome::kLocalAbort);
  try_start();
}

bool Node::abort(const task::SimpleTask& t) {
  const bool running = current_.get() == &t;
  const TaskPtr victim = running ? interrupt_service() : ready_.remove(t);
  if (!victim) return false;
  retire(*victim, TaskState::kAborted, aborted_externally_, Event::kAborted);
  if (running) try_start();
  return true;
}

Node::PerfCounters Node::perf_counters() const noexcept {
  PerfCounters pc;
  pc.node = config_.index;
  pc.busy_time = busy_time();
  const sim::Time now = engine_.now();
  pc.idle_time = now > pc.busy_time ? now - pc.busy_time : 0.0;
  pc.utilization = utilization();
  pc.submissions = submissions_;
  pc.completed = completed_;
  pc.aborted_locally = aborted_locally_;
  pc.aborted_externally = aborted_externally_;
  pc.preemptions = preemptions_;
  pc.failed = failed_;
  pc.crashes = crashes_;
  pc.queue_high_water = queue_high_water_;
  pc.abort_timers_armed = abort_timers_armed_;
  pc.abort_timers_cancelled = abort_timers_cancelled_;
  pc.queue_depth_samples = depth_samples_;
  pc.queue_depth_mean =
      depth_samples_ > 0
          ? depth_sample_sum_ / static_cast<double>(depth_samples_)
          : 0.0;
  return pc;
}

sim::Time Node::busy_time() const noexcept {
  sim::Time total = busy_accum_;
  if (current_) total += engine_.now() - service_started_;
  return total;
}

double Node::utilization() const noexcept {
  const sim::Time now = engine_.now();
  return now > 0.0 ? busy_time() / now : 0.0;
}

double Node::mean_tasks_in_system() const noexcept {
  const sim::Time now = engine_.now();
  if (now <= 0.0) return 0.0;
  const sim::Time area =
      pop_area_ +
      static_cast<sim::Time>(population_) * (now - pop_last_change_);
  return area / now;
}

}  // namespace sda::sched
