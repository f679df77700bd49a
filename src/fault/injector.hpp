// Wires a FaultPlan into a live simulated system.
//
// arm() schedules every planned crash/recovery as engine events and
// installs per-node fault hooks: compute nodes sample transient subtask
// failures, link nodes sample message loss and extra delay.  All online
// sampling draws from *per-node* RNG substreams (split off the dedicated
// attempt stream in node-index order), consumed in that node's service
// order.  Per-node streams are what keep fault realizations identical
// between the serial engine and the sharded fabric: each node's draw
// sequence depends only on its own service history, never on how events
// from different nodes interleave globally.
//
// The injector only *kills* tasks; recovery (retry / failover / shed) is
// the process manager's RecoveryPolicy.  Local tasks on a crashed node
// fail terminally — they have no manager to resubmit them.
#pragma once

#include <cstdint>
#include <vector>

#include "src/fault/fault_plan.hpp"
#include "src/sched/node.hpp"
#include "src/sim/engine.hpp"
#include "src/util/rng.hpp"

namespace sda::fault {

class FaultInjector {
 public:
  /// @p nodes is indexed by node id; indices [0, compute_node_count) are
  /// compute nodes, the rest link nodes.  @p attempt_rng is the dedicated
  /// stream for online (per-service-attempt) sampling; it is split into
  /// one substream per node.
  FaultInjector(sim::Engine& engine, std::vector<sched::Node*> nodes,
                int compute_node_count, FaultPlan plan,
                util::Rng attempt_rng);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules node i's crash/recovery events on @p engines[i] (its
  /// lane's engine) instead of the constructor's engine.  Must cover
  /// every node; call before arm().
  void set_lane_engines(std::vector<sim::Engine*> engines);

  /// Schedules the crash plan and installs the fault hooks. Call once,
  /// before the engine runs.
  void arm();

  const FaultPlan& plan() const noexcept { return plan_; }

  // --- statistics (sums over per-node counters; call after the run) -------
  /// Crash events that actually took a node down.
  std::uint64_t crashes() const noexcept { return sum(crashes_by_node_); }
  /// Transient subtask failures injected on compute nodes.
  std::uint64_t transient_failures() const noexcept {
    return sum(transient_by_node_);
  }
  /// Message transmissions lost on link nodes.
  std::uint64_t messages_lost() const noexcept { return sum(lost_by_node_); }

 private:
  static std::uint64_t sum(const std::vector<std::uint64_t>& v) noexcept {
    std::uint64_t total = 0;
    for (const std::uint64_t x : v) total += x;
    return total;
  }

  std::vector<sim::Engine*> lane_engines_;  // one per node
  std::vector<sched::Node*> nodes_;
  int compute_node_count_;
  FaultPlan plan_;
  /// One substream per node, split in node-index order; each is drawn
  /// only from that node's lane (thread-safe by lane affinity).
  std::vector<util::Rng> node_rngs_;
  bool armed_ = false;

  // Per-node so concurrent lanes never write one shared counter.
  std::vector<std::uint64_t> crashes_by_node_;
  std::vector<std::uint64_t> transient_by_node_;
  std::vector<std::uint64_t> lost_by_node_;
};

}  // namespace sda::fault
