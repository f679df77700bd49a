#include "src/layers.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>

#include "src/core/strategy.hpp"
#include "src/sim/timer_queue.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// One decorated queue's state.  Only the thread driving that queue's
// engine touches it while the run is live; the list below is read after
// run_once has joined every shard thread.
struct Probe {
  QueueCounters c;
  bool started = false;
  Clock::time_point run_start{};
  bool in_handler = false;
  Clock::time_point pop_end{};
};

std::mutex g_mu;
std::vector<std::shared_ptr<Probe>> g_probes;  // guarded by g_mu
std::atomic<std::uint64_t> g_psp{0};
std::atomic<std::uint64_t> g_ssp{0};

// Times one queue call: closes the open handler interval, adds the call's
// own duration, and opens a new handler interval after a pop.
class Span {
 public:
  Span(Probe& p, bool is_pop) : p_(p), is_pop_(is_pop), t0_(Clock::now()) {
    if (p_.in_handler) {
      p_.c.handler_s += seconds(p_.pop_end, t0_);
      p_.in_handler = false;
    }
    if (is_pop_ && !p_.started) {
      p_.started = true;
      p_.run_start = t0_;
    }
  }
  ~Span() {
    const Clock::time_point t1 = Clock::now();
    const double d = seconds(t0_, t1);
    p_.c.self_s += d;
    if (p_.started) {
      p_.c.run_self_s += d;
      p_.c.run_span_s = seconds(p_.run_start, t1);
    }
    if (is_pop_) {
      p_.in_handler = true;
      p_.pop_end = t1;
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Probe& p_;
  bool is_pop_;
  Clock::time_point t0_;
};

class TracedQueue final : public sda::sim::TimerQueue {
 public:
  TracedQueue(std::unique_ptr<sda::sim::TimerQueue> inner,
              std::shared_ptr<Probe> probe)
      : inner_(std::move(inner)), probe_(std::move(probe)) {}

  sda::sim::EventId push(sda::sim::Time t, sda::sim::EventFn fn) override {
    Span s(*probe_, false);
    const sda::sim::EventId id = inner_->push(t, std::move(fn));
    ++probe_->c.pushes;
    probe_->c.pending_max = std::max(probe_->c.pending_max, inner_->size());
    return id;
  }
  bool cancel(sda::sim::EventId id) override {
    Span s(*probe_, false);
    const bool live = inner_->cancel(id);
    if (live) ++probe_->c.cancels;
    return live;
  }
  bool pending(sda::sim::EventId id) const noexcept override {
    Span s(*probe_, false);
    return inner_->pending(id);
  }
  bool empty() const noexcept override {
    Span s(*probe_, false);
    return inner_->empty();
  }
  std::size_t size() const noexcept override {
    Span s(*probe_, false);
    return inner_->size();
  }
  sda::sim::Time peek_time() const override {
    Span s(*probe_, false);
    return inner_->peek_time();
  }
  Popped pop_slot() override {
    Span s(*probe_, true);
    ++probe_->c.pops;
    return inner_->pop_slot();
  }
  void validate() const override { inner_->validate(); }
  const char* backend_name() const noexcept override {
    return inner_->backend_name();
  }

 private:
  std::unique_ptr<sda::sim::TimerQueue> inner_;
  std::shared_ptr<Probe> probe_;
};

class CountingPsp final : public sda::core::PspStrategy {
 public:
  explicit CountingPsp(std::unique_ptr<sda::core::PspStrategy> inner)
      : inner_(std::move(inner)) {}
  sda::core::Time assign(const sda::core::PspContext& ctx, int branch,
                         sda::core::Time branch_pex) const override {
    g_psp.fetch_add(1, std::memory_order_relaxed);
    return inner_->assign(ctx, branch, branch_pex);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<sda::core::PspStrategy> inner_;
};

class CountingSsp final : public sda::core::SspStrategy {
 public:
  explicit CountingSsp(std::unique_ptr<sda::core::SspStrategy> inner)
      : inner_(std::move(inner)) {}
  sda::core::Time assign(const sda::core::SspContext& ctx) const override {
    g_ssp.fetch_add(1, std::memory_order_relaxed);
    return inner_->assign(ctx);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<sda::core::SspStrategy> inner_;
};

}  // namespace

TracedNames register_decorators(const std::string& queue,
                                const std::string& psp,
                                const std::string& ssp) {
  static std::set<std::string> registered;  // main thread only
  TracedNames names{"perfbench-" + queue, "perfbench-" + psp,
                    "perfbench-" + ssp};
  if (registered.insert("q:" + names.timer_queue).second) {
    sda::sim::register_timer_queue(
        names.timer_queue, [queue](const std::string&) {
          auto probe = std::make_shared<Probe>();
          {
            std::lock_guard<std::mutex> lock(g_mu);
            g_probes.push_back(probe);
          }
          return std::unique_ptr<sda::sim::TimerQueue>(std::make_unique<TracedQueue>(
              sda::sim::make_timer_queue(queue), std::move(probe)));
        });
  }
  if (registered.insert("p:" + names.psp).second) {
    sda::core::register_psp(names.psp, [psp](const std::string&) {
      return std::unique_ptr<sda::core::PspStrategy>(
          std::make_unique<CountingPsp>(sda::core::make_psp_strategy(psp)));
    });
  }
  if (registered.insert("s:" + names.ssp).second) {
    sda::core::register_ssp(names.ssp, [ssp](const std::string&) {
      return std::unique_ptr<sda::core::SspStrategy>(
          std::make_unique<CountingSsp>(sda::core::make_ssp_strategy(ssp)));
    });
  }
  return names;
}

std::vector<QueueCounters> queue_counters() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<QueueCounters> out;
  out.reserve(g_probes.size());
  for (const auto& p : g_probes) out.push_back(p->c);
  return out;
}

void reset_layer_counters() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_probes.clear();
  g_psp.store(0, std::memory_order_relaxed);
  g_ssp.store(0, std::memory_order_relaxed);
}

std::uint64_t psp_assigns() { return g_psp.load(std::memory_order_relaxed); }
std::uint64_t ssp_assigns() { return g_ssp.load(std::memory_order_relaxed); }

}  // namespace perfbench
