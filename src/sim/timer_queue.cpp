#include "src/sim/timer_queue.hpp"

#include "src/sim/event_queue.hpp"

namespace sda::sim {

namespace {

using BackendRegistry = util::Registry<TimerQueue>;

/// The built-in backend is seeded through the same add() path as user
/// backends the first time any registry accessor runs.
BackendRegistry& timer_queue_registry() {
  static BackendRegistry reg = [] {
    BackendRegistry r("timer-queue", "backend");
    r.add("heap",
          [](const std::string&) -> std::unique_ptr<TimerQueue> {
            return std::make_unique<EventQueue>();
          },
          util::NameMatch::kExact, "heap");
    return r;
  }();
  return reg;
}

}  // namespace

void register_timer_queue(const std::string& name, TimerQueueFactory factory,
                          util::NameMatch match, const std::string& display) {
  timer_queue_registry().add(name, std::move(factory), match, display);
}

std::unique_ptr<TimerQueue> make_timer_queue(const std::string& name) {
  return timer_queue_registry().make(name);
}

}  // namespace sda::sim
