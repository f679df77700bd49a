// Sharded replication assembly: one run on the conservative time-window
// fabric (src/sim/fabric.hpp, DESIGN.md §4c).
//
// The system is the same one runner.cpp builds — same components, same
// RNG split order, same handler topology — but laid out across lanes:
// node i (plus its local source and fault hooks) lives on lane i, and the
// process manager, admission gate, global source and metric sinks live on
// the control lane (shard 0).  Every cross-lane interaction goes through
// fabric messages:
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
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/exp/runner_detail.hpp"

#include "src/core/strategy.hpp"
#include "src/fault/fault_plan.hpp"
#include "src/fault/injector.hpp"
#include "src/sched/node.hpp"
#include "src/sched/scheduler.hpp"
#include "src/sim/fabric.hpp"
#include "src/util/rng.hpp"
#include "src/workload/global_source.hpp"
#include "src/workload/local_source.hpp"
#include "src/workload/rates.hpp"
#include "src/workload/taskgraph_source.hpp"

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
/// delivered submit message, release inside the node's terminal handlers),
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
  /// its node.  Called from the node-lane terminal handlers.
  void release(int node, std::uint64_t id) {
    registry_[static_cast<std::size_t>(node)].erase(id);
  }

 private:
  sim::Fabric& fabric_;
  std::vector<sched::Node*> nodes_;
  std::vector<std::unordered_map<std::uint64_t, task::TaskPtr>> registry_;
};

}  // namespace

RunResult run_once_sharded(const ExperimentConfig& config, std::uint64_t seed,
                           metrics::Tracer* tracer) {
  const int link_count =
      config.global_kind == GlobalKind::kGraph ? config.link_count : 0;
  const int total_nodes = config.k + link_count;

  sim::Fabric::Options fo;
  fo.lanes = total_nodes;
  fo.shards = config.shards;
  fo.latency = config.net_latency;
  fo.timer_queue = config.timer_queue;
  sim::Fabric fabric(fo);
  const int control = fabric.control_lane();
  sim::Engine& control_engine = fabric.control_engine();

  util::Rng master(seed);

  // --- nodes (lane i -> node i's shard engine) -----------------------------
  std::vector<std::unique_ptr<sched::Node>> nodes;
  std::vector<sched::Node*> node_ptrs;
  nodes.reserve(static_cast<std::size_t>(total_nodes));
  for (int i = 0; i < total_nodes; ++i) {
    sched::Node::Config nc;
    nc.index = i;
    nc.abort_policy = config.local_abort;
    nc.preemptive = config.preemptive;
    if (!config.node_speeds.empty() && i < config.k) {
      nc.speed = config.node_speeds[static_cast<std::size_t>(i)];
    }
    nodes.push_back(std::make_unique<sched::Node>(
        fabric.engine_for_lane(i), sched::make_scheduler(config.scheduler_policy),
        nc));
    node_ptrs.push_back(nodes.back().get());
  }

  // --- process manager (control lane, message port) ------------------------
  FabricNodePort port(fabric, node_ptrs);
  core::ProcessManager::Config pmc;
  pmc.psp = core::make_psp_strategy(config.psp);
  pmc.ssp = core::make_ssp_strategy(config.ssp);
  pmc.abort_mode = config.pm_abort;
  pmc.mark_subtasks_non_abortable = config.subtasks_non_abortable;
  pmc.compute_node_count = config.k;
  if (config.max_retries_per_run >= 0) {
    pmc.recovery.max_retries_per_run = config.max_retries_per_run;
  }
  pmc.recovery.backoff_base = config.retry_backoff_base;
  pmc.recovery.backoff_factor = config.retry_backoff_factor;
  pmc.recovery.failover = config.retry_failover;
  pmc.recovery.deadline_mode = config.retry_deadline == "stale"
                                   ? core::RetryDeadline::kStale
                                   : core::RetryDeadline::kSdaRecompute;
  pmc.recovery.shed_negative_slack = config.shed_negative_slack;
  core::ProcessManager pm(control_engine, port, std::move(pmc));

  // --- admission gate (control lane; draws no RNG) -------------------------
  std::unique_ptr<core::AdmissionController> admission;
  if (config.admission) {
    admission =
        std::make_unique<core::AdmissionController>(config.admission_config());
  }
  core::AdmissionController* admission_ptr = admission.get();

  // --- metrics: sinks live behind the fabric's deterministic replay --------
  metrics::Collector collector;
  collector.set_warmup(config.warmup_fraction * config.sim_time);
  if (config.tardiness_histograms) collector.enable_tardiness_histograms();
  if (config.distributions) collector.enable_distributions();
  fabric.set_sinks(&collector, tracer);

  pm.set_global_handler([&fabric, admission_ptr, control,
                         tracer](const core::GlobalTaskRecord& rec) {
    if (admission_ptr != nullptr) admission_ptr->on_finished(rec.run_id);
    fabric.emit_global(control, rec);
    if (tracer != nullptr) {
      const metrics::TraceEvent ev =
          rec.shed ? metrics::TraceEvent::kGlobalShed
                   : (rec.aborted ? metrics::TraceEvent::kGlobalAborted
                                  : metrics::TraceEvent::kGlobalCompleted);
      fabric.emit_trace(control,
                        metrics::TraceRecord{rec.finished_at, ev, 0, rec.run_id,
                                             -1, rec.real_deadline});
    }
  });
  pm.set_subtask_handler([&fabric, control](const task::SimpleTask& t) {
    fabric.emit_simple(control, t);
  });
  if (tracer != nullptr) {
    pm.set_submit_observer(
        [&fabric, &control_engine, control](std::uint64_t run_id,
                                            sim::Time deadline) {
          fabric.emit_trace(
              control,
              metrics::TraceRecord{control_engine.now(),
                                   metrics::TraceEvent::kGlobalSubmitted, 0,
                                   run_id, -1, deadline});
        });
    for (auto& node : nodes) {
      const int lane = node->index();
      sim::Engine* lane_engine = &fabric.engine_for_lane(lane);
      node->set_observer([&fabric, lane, lane_engine](
                             sched::Node::Event e, const task::SimpleTask& t) {
        fabric.emit_trace(lane,
                          metrics::TraceRecord{lane_engine->now(),
                                               to_trace_event(e), t.id,
                                               t.owner_run, lane,
                                               t.attrs.virtual_deadline});
      });
    }
  }

  // Terminal handlers run on the node's lane: locals record through the
  // fabric; subtasks release the port registry and ship a value snapshot
  // of the task to the PM (handle_remote replays it over the PM's copy).
  auto notify_pm = [&fabric, &port, &pm](int lane, const task::TaskPtr& t,
                                         core::RemoteSubtaskEvent ev) {
    port.release(lane, t->id);
    const task::SimpleTask snapshot = *t;
    fabric.post(lane, fabric.control_lane(), [&pm, snapshot, ev] {
      pm.handle_remote(snapshot, ev);
    });
  };
  for (auto& node : nodes) {
    const int lane = node->index();
    node->set_completion_handler([&fabric, lane, notify_pm](
                                     const task::TaskPtr& t) {
      if (t->kind == task::TaskKind::kLocal) {
        fabric.emit_simple(lane, *t);
      } else {
        notify_pm(lane, t, core::RemoteSubtaskEvent::kCompleted);
      }
    });
    node->set_abort_handler([&fabric, lane, notify_pm](const task::TaskPtr& t) {
      if (t->kind == task::TaskKind::kLocal) {
        fabric.emit_simple(lane, *t);  // a locally aborted local is a miss
      } else {
        notify_pm(lane, t, core::RemoteSubtaskEvent::kLocalAbort);
      }
    });
    node->set_failure_handler([&fabric, lane, notify_pm](
                                  const task::TaskPtr& t) {
      if (t->kind == task::TaskKind::kLocal) {
        fabric.emit_simple(lane, *t);  // a fault-killed local is a miss
      } else {
        notify_pm(lane, t, core::RemoteSubtaskEvent::kFailed);
      }
    });
  }

  // --- workload (identical split order to runner.cpp) ----------------------
  workload::RateParams rp;
  rp.k = config.k;
  rp.load = config.load;
  rp.frac_local = config.frac_local;
  rp.mu_local = config.mu_local;
  rp.expected_global_work = config.expected_global_work();
  const workload::Rates rates = workload::solve_rates(rp);

  std::vector<std::unique_ptr<workload::LocalSource>> local_sources;
  for (int i = 0; i < config.k; ++i) {
    workload::LocalSource::Config lc;
    lc.lambda = rates.lambda_local;
    lc.mean_exec = 1.0 / config.mu_local;
    lc.slack_min = config.slack_min;
    lc.slack_max = config.slack_max;
    lc.abort_at_real_deadline =
        config.pm_abort == core::PmAbortMode::kRealDeadline;
    lc.id_base = local_id_base(i);
    lc.burst_factor = config.local_burst_factor;
    lc.burst_cycle = config.local_burst_cycle;
    lc.exec = workload::make_exec_distribution(
        config.service_dist, 1.0 / config.mu_local, config.service_cv);
    local_sources.push_back(std::make_unique<workload::LocalSource>(
        fabric.engine_for_lane(i), *nodes[static_cast<std::size_t>(i)],
        collector, master.split(), lc));
    // PM-timer abort records must join the global (time, path) order, not
    // jump the fence into the control-lane collector.
    const int lane = i;
    local_sources.back()->set_record_hook(
        [&fabric, lane](const task::SimpleTask& t) {
          fabric.emit_simple(lane, t);
        });
    local_sources.back()->start();
  }

  const auto [gslack_min, gslack_max] = config.resolved_global_slack();
  std::unique_ptr<workload::ParallelGlobalSource> parallel_source;
  std::unique_ptr<workload::GraphGlobalSource> graph_source;
  if (config.global_kind == GlobalKind::kParallel) {
    workload::ParallelGlobalSource::Config gc;
    gc.lambda = rates.lambda_global;
    gc.k = config.k;
    gc.n_min = config.n_min;
    gc.n_max = config.n_max;
    gc.mean_subtask_exec = 1.0 / config.mu_subtask;
    gc.slack_min = gslack_min;
    gc.slack_max = gslack_max;
    gc.pex = config.pex;
    gc.exec_spread = config.subtask_exec_spread;
    gc.exec = workload::make_exec_distribution(
        config.service_dist, 1.0 / config.mu_subtask, config.service_cv);
    // "least-queued" (which reads live node state) is rejected by
    // validate() for shards > 1; "uniform" never dereferences the nodes.
    gc.placement = workload::make_placement(
        config.placement,
        std::vector<const sched::Node*>(node_ptrs.begin(), node_ptrs.end()));
    gc.burst_factor = config.global_burst_factor;
    gc.burst_cycle = config.global_burst_cycle;
    gc.admission = admission_ptr;
    parallel_source = std::make_unique<workload::ParallelGlobalSource>(
        control_engine, pm, master.split(), gc);
    parallel_source->start();
  } else {
    workload::GraphGlobalSource::Config gc;
    gc.lambda = rates.lambda_global;
    gc.k = config.k;
    gc.stage_widths = config.stage_widths;
    gc.mean_subtask_exec = 1.0 / config.mu_subtask;
    gc.slack_min = gslack_min;
    gc.slack_max = gslack_max;
    gc.pex = config.pex;
    for (int link = 0; link < link_count; ++link) {
      gc.link_nodes.push_back(config.k + link);
    }
    gc.mean_msg_time = config.mean_msg_time;
    gc.exec = workload::make_exec_distribution(
        config.service_dist, 1.0 / config.mu_subtask, config.service_cv);
    graph_source = std::make_unique<workload::GraphGlobalSource>(
        control_engine, pm, master.split(), gc);
    graph_source->start();
  }

  // --- fault injection ------------------------------------------------------
  std::unique_ptr<fault::FaultInjector> injector;
  if (config.faults_enabled()) {
    util::Rng fault_master = master.split();
    fault::FaultConfig fc;
    fc.subtask_failure_rate = config.fault_rate;
    fc.crash_mean_uptime = config.crash_mean_uptime;
    fc.crash_mean_downtime = config.crash_mean_downtime;
    fc.crash_discards_queue = config.crash_discards_queue;
    fc.msg_loss_rate = config.msg_loss_rate;
    fc.msg_extra_delay_mean = config.msg_extra_delay_mean;
    fault::FaultPlan plan = fault::FaultPlan::generate(
        fc, config.k, config.sim_time, fault_master.split());
    // The PM answers failover is_up() probes from the static crash
    // calendar — same information the plan gives the injector.
    fabric.status_board().reset(total_nodes);
    for (const fault::CrashInterval& c : plan.crashes()) {
      fabric.status_board().add_outage(c.node, c.down_at, c.up_at);
    }
    injector = std::make_unique<fault::FaultInjector>(
        control_engine, node_ptrs, config.k, std::move(plan),
        fault_master.split());
    std::vector<sim::Engine*> lane_engines;
    lane_engines.reserve(static_cast<std::size_t>(total_nodes));
    for (int i = 0; i < total_nodes; ++i) {
      lane_engines.push_back(&fabric.engine_for_lane(i));
    }
    injector->set_lane_engines(std::move(lane_engines));
    injector->arm();
  }

  // --- run ------------------------------------------------------------------
  fabric.run(config.sim_time);

  // --- results --------------------------------------------------------------
  RunResult result;
  result.collector = std::move(collector);
  double util = 0.0, link_util = 0.0;
  std::uint64_t local_aborts = 0, preemptions = 0;
  for (const auto& node : nodes) {
    (node->index() < config.k ? util : link_util) += node->utilization();
    result.node_utilizations.push_back(node->utilization());
    result.node_counters.push_back(node->perf_counters());
    local_aborts += node->aborted_locally();
    preemptions += node->preemptions();
  }
  result.mean_utilization = util / static_cast<double>(config.k);
  if (link_count > 0) {
    result.mean_link_utilization = link_util / static_cast<double>(link_count);
  }
  result.events_fired = fabric.events_fired();
  for (const auto& src : local_sources) {
    result.locals_generated += src->generated();
  }
  result.globals_generated =
      parallel_source ? parallel_source->generated()
                      : (graph_source ? graph_source->generated() : 0);
  result.globals_completed = pm.completed_runs();
  result.globals_aborted = pm.aborted_runs();
  result.local_scheduler_aborts = local_aborts;
  result.resubmissions = pm.resubmissions();
  result.preemptions = preemptions;
  if (injector) {
    result.node_crashes = injector->crashes();
    result.transient_failures = injector->transient_failures();
    result.messages_lost = injector->messages_lost();
  }
  result.fault_retries = pm.fault_retries();
  result.failovers = pm.failovers();
  result.globals_shed = pm.shed_runs();
  if (admission_ptr != nullptr) {
    result.admission_enabled = true;
    result.admission = admission_ptr->stats();
    result.admission_final_state = admission_ptr->state();
    if (parallel_source) {
      result.globals_not_admitted = parallel_source->not_admitted();
    }
  }
  result.fabric = RunResult::FabricStats{
      fabric.windows(), fabric.messages_posted(), fabric.records_replayed(),
      fabric.fallback_sorts()};
  return result;
}

}  // namespace sda::exp::detail
