// Fabric wiring for the shared assembly (runner_detail.hpp): one run on
// the conservative time-window fabric (src/sim/fabric.hpp, DESIGN.md §4c).
//
// run_system builds the same system the serial engine runs, laid out
// across lanes: node i (plus its local source and fault hooks) lives on
// lane i, and the process manager, admission gate, global source and
// metric sinks live on the control lane (shard 0).  This wiring turns
// every cross-lane interaction into a fabric message:
//
//   PM -> node    dispatch / abort, via FabricNodePort (task snapshots —
//                 the PM and the node never share a SimpleTask object);
//   node -> PM    terminal subtask outcomes, as value snapshots replayed
//                 through ProcessManager::handle_remote;
//   any -> sinks  deferred SinkRecords, merged by shard 0 in global
//                 (time, origin-path) order — which is what makes the
//                 tracer fingerprint bit-identical at any shard count.
//
// The PM's only remaining read of node-side state, is_up() for failover,
// is answered from the fabric's NodeStatusBoard (the static crash plan)
// instead of the live node.
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/exp/runner_detail.hpp"

#include "src/sim/fabric.hpp"

namespace sda::exp::detail {

namespace {

/// core::NodePort that ships every process-manager/node interaction as a
/// fabric message.  Tasks are cloned at the boundary: the node executes
/// its own copy, and the PM learns the outcome from a snapshot — no
/// object is ever touched by two shards.
///
/// The per-node registries map task id -> the node's clone so an abort
/// message can find the object the node actually holds.  Each registry is
/// touched only from its node's lane (registration happens inside the
/// delivered submit message, release inside the node's outcome handler),
/// so there is no cross-shard access to guard.
class FabricNodePort final : public core::NodePort {
 public:
  FabricNodePort(sim::Fabric& fabric, std::vector<sched::Node*> nodes)
      : fabric_(fabric), nodes_(std::move(nodes)),
        registry_(nodes_.size()) {}

  int count() const override { return static_cast<int>(nodes_.size()); }

  /// Failover probe, called from the PM's shard: answered from the static
  /// crash calendar at the control clock instead of the live node.
  bool is_up(int node) const override {
    return fabric_.status_board().is_up(node, fabric_.control_engine().now());
  }

  void submit(int node, const task::TaskPtr& t) override {
    auto clone = std::make_shared<task::SimpleTask>(*t);
    fabric_.post(fabric_.control_lane(), node, [this, node, clone] {
      registry_[static_cast<std::size_t>(node)][clone->id] = clone;
      nodes_[static_cast<std::size_t>(node)]->submit(clone);
    });
  }

  void abort(int node, const task::SimpleTask& t) override {
    const std::uint64_t id = t.id;
    fabric_.post(fabric_.control_lane(), node, [this, node, id] {
      auto& reg = registry_[static_cast<std::size_t>(node)];
      auto it = reg.find(id);
      // Unknown id: the subtask reached a terminal state before the abort
      // arrived (legitimate under message latency) — nothing to do, which
      // is exactly DirectNodePort's "not here" no-op.
      if (it == reg.end()) return;
      const task::TaskPtr victim = it->second;
      reg.erase(it);
      nodes_[static_cast<std::size_t>(node)]->abort(*victim);
    });
  }

  /// Drops the registry entry for a task that reached a terminal state on
  /// its node.  Called from the node-lane outcome handler.
  void release(int node, std::uint64_t id) {
    registry_[static_cast<std::size_t>(node)].erase(id);
  }

 private:
  sim::Fabric& fabric_;
  std::vector<sched::Node*> nodes_;
  std::vector<std::unordered_map<std::uint64_t, task::TaskPtr>> registry_;
};

/// Node i runs on lane i's shard engine; everything else on the control
/// lane.  Sinks sit behind the fabric's deterministic replay.
class FabricWiring final {
 public:
  explicit FabricWiring(const ExperimentConfig& config)
      : fabric_(options(config)) {}

  sim::Engine& engine_for_lane(int lane) noexcept {
    return fabric_.engine_for_lane(lane);
  }
  sim::Engine& control_engine() noexcept { return fabric_.control_engine(); }
  int control_lane() const noexcept { return fabric_.control_lane(); }

  core::NodePort& port(std::vector<sched::Node*> nodes) {
    return port_.emplace(fabric_, std::move(nodes));
  }

  void set_sinks(metrics::Collector* collector, metrics::Tracer* tracer) {
    fabric_.set_sinks(collector, tracer);
  }
  void emit_simple(int lane, const task::SimpleTask& t) {
    fabric_.emit_simple(lane, t);
  }
  void emit_global(int lane, const core::GlobalTaskRecord& rec) {
    fabric_.emit_global(lane, rec);
  }
  void emit_trace(int lane, const metrics::TraceRecord& rec) {
    fabric_.emit_trace(lane, rec);
  }

  /// Runs on the node's lane: releases the port registry and ships a value
  /// snapshot of the task to the PM (handle_remote replays it over the
  /// PM's copy).
  void subtask_outcome(core::ProcessManager& pm, int lane,
                       const task::TaskPtr& t, sched::Node::Outcome outcome) {
    port_->release(lane, t->id);
    const task::SimpleTask snapshot = *t;
    fabric_.post(lane, fabric_.control_lane(), [&pm, snapshot, outcome] {
      pm.handle_remote(snapshot, outcome);
    });
  }

  /// PM-timer abort records must join the global (time, path) order, not
  /// jump the fence into the control-lane collector.
  void hook_local_source(workload::LocalSource& source, int lane) {
    source.set_record_hook([this, lane](const task::SimpleTask& t) {
      fabric_.emit_simple(lane, t);
    });
  }

  /// The PM answers failover is_up() probes from the static crash
  /// calendar — the same information the plan gives the injector.
  void plan_outages(const fault::FaultPlan& plan, int node_count) {
    fabric_.status_board().reset(node_count);
    for (const fault::CrashInterval& c : plan.crashes()) {
      fabric_.status_board().add_outage(c.node, c.down_at, c.up_at);
    }
  }

  void run(sim::Time horizon) { fabric_.run(horizon); }
  std::uint64_t events_fired() const noexcept { return fabric_.events_fired(); }
  std::optional<RunResult::FabricStats> fabric_stats() const noexcept {
    return RunResult::FabricStats{fabric_.windows(), fabric_.messages_posted(),
                                  fabric_.records_replayed(),
                                  fabric_.fallback_sorts()};
  }

 private:
  static sim::Fabric::Options options(const ExperimentConfig& config) {
    sim::Fabric::Options fo;
    fo.lanes = config.k + (config.global_kind == GlobalKind::kGraph
                               ? config.link_count
                               : 0);
    fo.shards = config.shards;
    fo.latency = config.net_latency;
    fo.timer_queue = config.timer_queue;
    return fo;
  }

  sim::Fabric fabric_;
  std::optional<FabricNodePort> port_;
};

}  // namespace

RunResult run_once_sharded(const ExperimentConfig& config, std::uint64_t seed,
                           metrics::Tracer* tracer) {
  FabricWiring wiring(config);
  return run_system(config, seed, tracer, wiring);
}

}  // namespace sda::exp::detail
