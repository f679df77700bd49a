#include "src/fault/injector.hpp"

#include <stdexcept>

namespace sda::fault {

FaultInjector::FaultInjector(sim::Engine& engine,
                             std::vector<sched::Node*> nodes,
                             int compute_node_count, FaultPlan plan,
                             util::Rng attempt_rng)
    : nodes_(std::move(nodes)),
      compute_node_count_(compute_node_count),
      plan_(std::move(plan)) {
  if (compute_node_count_ < 0 ||
      compute_node_count_ > static_cast<int>(nodes_.size())) {
    throw std::invalid_argument(
        "FaultInjector: compute_node_count out of range");
  }
  for (const auto* n : nodes_) {
    if (n == nullptr) throw std::invalid_argument("FaultInjector: null node");
  }
  lane_engines_.assign(nodes_.size(), &engine);
  node_rngs_.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    node_rngs_.push_back(attempt_rng.split());
  }
  crashes_by_node_.assign(nodes_.size(), 0);
  transient_by_node_.assign(nodes_.size(), 0);
  lost_by_node_.assign(nodes_.size(), 0);
}

void FaultInjector::set_lane_engines(std::vector<sim::Engine*> engines) {
  if (armed_) {
    throw std::logic_error("FaultInjector::set_lane_engines: already armed");
  }
  if (engines.size() != nodes_.size()) {
    throw std::invalid_argument(
        "FaultInjector::set_lane_engines: one engine per node required");
  }
  for (const auto* e : engines) {
    if (e == nullptr) {
      throw std::invalid_argument(
          "FaultInjector::set_lane_engines: null engine");
    }
  }
  lane_engines_ = std::move(engines);
}

void FaultInjector::arm() {
  if (armed_) throw std::logic_error("FaultInjector::arm: already armed");
  armed_ = true;
  const FaultConfig& cfg = plan_.config();

  for (const CrashInterval& c : plan_.crashes()) {
    if (c.node >= static_cast<int>(nodes_.size())) {
      throw std::out_of_range("FaultInjector: crash plan names unknown node");
    }
    sched::Node* node = nodes_[static_cast<std::size_t>(c.node)];
    std::uint64_t* crash_count =
        &crashes_by_node_[static_cast<std::size_t>(c.node)];
    const bool discard = cfg.crash_discards_queue;
    sim::Engine& e = *lane_engines_[static_cast<std::size_t>(c.node)];
    e.at(c.down_at, [crash_count, node, discard] {
      ++*crash_count;
      node->crash(discard);
    });
    e.at(c.up_at, [node] { node->recover(); });
  }

  // Compute nodes: transient subtask failures.  One bernoulli per service
  // attempt; a failing attempt dies at a uniform point of its leg.
  if (cfg.subtask_failure_rate > 0.0) {
    for (int i = 0; i < compute_node_count_; ++i) {
      util::Rng* rng = &node_rngs_[static_cast<std::size_t>(i)];
      std::uint64_t* count = &transient_by_node_[static_cast<std::size_t>(i)];
      nodes_[static_cast<std::size_t>(i)]->set_fault_hook(
          [rng, count, rate = cfg.subtask_failure_rate](
              const task::SimpleTask& t, double duration) {
            sched::Node::ServiceFault f;
            if (t.kind == task::TaskKind::kSubtask && rng->bernoulli(rate)) {
              f.fail_after = rng->uniform01() * duration;
              ++*count;
            }
            return f;
          });
    }
  }

  // Link nodes: per-transmission loss and/or exponential jitter.
  if (cfg.msg_loss_rate > 0.0 || cfg.msg_extra_delay_mean > 0.0) {
    for (int i = compute_node_count_;
         i < static_cast<int>(nodes_.size()); ++i) {
      util::Rng* rng = &node_rngs_[static_cast<std::size_t>(i)];
      std::uint64_t* count = &lost_by_node_[static_cast<std::size_t>(i)];
      nodes_[static_cast<std::size_t>(i)]->set_fault_hook(
          [rng, count, loss = cfg.msg_loss_rate,
           jitter = cfg.msg_extra_delay_mean](const task::SimpleTask&,
                                              double duration) {
            sched::Node::ServiceFault f;
            if (jitter > 0.0) f.extra_delay = rng->exponential(jitter);
            if (loss > 0.0 && rng->bernoulli(loss)) {
              f.fail_after = rng->uniform01() * (duration + f.extra_delay);
              ++*count;
            }
            return f;
          });
    }
  }
}

}  // namespace sda::fault
