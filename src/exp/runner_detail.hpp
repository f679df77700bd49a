// The one assembly of the simulated system, shared by the serial engine
// (runner.cpp) and the time-window fabric (runner_sharded.cpp).
//
// run_system builds nodes, process manager, admission gate, collector,
// workload sources and fault plan from an ExperimentConfig, in one RNG
// split order, wires the handler topology, runs, and fills the RunResult.
// What really differs between the two engines is supplied by a *wiring*
// type, dispatched statically (template parameter, concrete final types):
//
//   sim::Engine& engine_for_lane(int lane);   node lane i, control lane
//   sim::Engine& control_engine();            PM, admission, global source
//   int control_lane() const;
//   core::NodePort& port(std::vector<sched::Node*> nodes);  the PM's window
//   void set_sinks(metrics::Collector*, metrics::Tracer*);
//   void emit_simple(int lane, const task::SimpleTask&);   sink records
//   void emit_global(int lane, const core::GlobalTaskRecord&);
//   void emit_trace(int lane, const metrics::TraceRecord&);
//   void subtask_outcome(core::ProcessManager&, int lane,
//                        const task::TaskPtr&, sched::Node::Outcome);
//   void hook_local_source(workload::LocalSource&, int lane);
//   void plan_outages(const fault::FaultPlan&, int node_count);
//   void run(sim::Time horizon);
//   std::uint64_t events_fired() const;
//   std::optional<RunResult::FabricStats> fabric_stats() const;
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/core/admission.hpp"
#include "src/core/process_manager.hpp"
#include "src/core/strategy.hpp"
#include "src/exp/config.hpp"
#include "src/exp/runner.hpp"
#include "src/fault/fault_plan.hpp"
#include "src/fault/injector.hpp"
#include "src/metrics/collector.hpp"
#include "src/metrics/trace.hpp"
#include "src/sched/node.hpp"
#include "src/sim/engine.hpp"
#include "src/util/rng.hpp"
#include "src/workload/global_source.hpp"
#include "src/workload/local_source.hpp"
#include "src/workload/rates.hpp"

namespace sda::exp::detail {

/// Task-id space partitioning: local sources and the process manager must
/// hand out ids that never collide (node-side bookkeeping is keyed by id).
constexpr std::uint64_t local_id_base(int node_index) {
  return (static_cast<std::uint64_t>(node_index) + 1) << 40;
}

inline metrics::TraceEvent to_trace_event(sched::Node::Event e) {
  switch (e) {
    case sched::Node::Event::kSubmitted: return metrics::TraceEvent::kSubmitted;
    case sched::Node::Event::kStarted: return metrics::TraceEvent::kStarted;
    case sched::Node::Event::kPreempted: return metrics::TraceEvent::kPreempted;
    case sched::Node::Event::kCompleted: return metrics::TraceEvent::kCompleted;
    case sched::Node::Event::kAborted: return metrics::TraceEvent::kAborted;
    case sched::Node::Event::kFailed: return metrics::TraceEvent::kFailed;
  }
  return metrics::TraceEvent::kSubmitted;
}

/// True when the run must go through the message fabric: more than one
/// shard, or a modeled control-plane latency (which changes delivery
/// times even on a single shard).  shards == 1 && net_latency == 0 runs
/// on one sim::Engine and never builds a fabric.
inline bool message_mode(const ExperimentConfig& c) noexcept {
  return c.shards > 1 || c.net_latency > 0.0;
}

/// One replication on the conservative time-window fabric (DESIGN.md §4c).
/// Same contract as run_once; the config has already been validated.
RunResult run_once_sharded(const ExperimentConfig& config, std::uint64_t seed,
                           metrics::Tracer* tracer);

/// Builds and runs one replication on @p wiring (see file comment).  Node
/// i and its local source live on lane i; the process manager, admission
/// gate, global source and metric sinks live on the control lane.  The
/// config has already been validated.
template <class Wiring>
RunResult run_system(const ExperimentConfig& config, std::uint64_t seed,
                     metrics::Tracer* tracer, Wiring& wiring) {
  util::Rng master(seed);
  const int link_count =
      config.global_kind == GlobalKind::kGraph ? config.link_count : 0;
  const int total_nodes = config.k + link_count;
  const int control = wiring.control_lane();
  sim::Engine& control_engine = wiring.control_engine();

  // --- nodes ---------------------------------------------------------------
  std::vector<std::unique_ptr<sched::Node>> nodes;
  std::vector<sched::Node*> node_ptrs;
  nodes.reserve(static_cast<std::size_t>(total_nodes));
  const sched::Policy policy = sched::parse_policy(config.scheduler_policy);
  for (int i = 0; i < total_nodes; ++i) {
    sched::Node::Config nc;
    nc.index = i;
    nc.policy = policy;
    nc.abort_policy = config.local_abort;
    nc.preemptive = config.preemptive;
    if (!config.node_speeds.empty() && i < config.k) {
      nc.speed = config.node_speeds[static_cast<std::size_t>(i)];
    }
    nodes.push_back(
        std::make_unique<sched::Node>(wiring.engine_for_lane(i), nc));
    node_ptrs.push_back(nodes.back().get());
  }

  // --- process manager -------------------------------------------------------
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
  core::ProcessManager pm(control_engine, wiring.port(node_ptrs),
                          std::move(pmc));

  // --- admission gate --------------------------------------------------------
  // Built before the handlers so run completions can retire ledger
  // entries.  The controller draws no RNG and schedules no events, so an
  // absent gate leaves the simulation bit-identical.
  std::unique_ptr<core::AdmissionController> admission;
  if (config.admission) {
    admission =
        std::make_unique<core::AdmissionController>(config.admission_config());
  }
  core::AdmissionController* admission_ptr = admission.get();

  // --- metrics and handlers ----------------------------------------------------
  metrics::Collector collector;
  collector.set_warmup(config.warmup_fraction * config.sim_time);
  if (config.distributions) collector.enable_distributions();
  wiring.set_sinks(&collector, tracer);

  pm.set_global_handler([&wiring, admission_ptr, control,
                         tracer](const core::GlobalTaskRecord& rec) {
    if (admission_ptr != nullptr) admission_ptr->on_finished(rec.run_id);
    wiring.emit_global(control, rec);
    if (tracer != nullptr) {
      const metrics::TraceEvent ev =
          rec.shed ? metrics::TraceEvent::kGlobalShed
                   : (rec.aborted ? metrics::TraceEvent::kGlobalAborted
                                  : metrics::TraceEvent::kGlobalCompleted);
      wiring.emit_trace(control,
                        metrics::TraceRecord{rec.finished_at, ev, 0, rec.run_id,
                                             -1, rec.real_deadline});
    }
  });
  pm.set_subtask_handler([&wiring, control](const task::SimpleTask& t) {
    wiring.emit_simple(control, t);
  });
  if (tracer != nullptr) {
    pm.set_submit_observer([&wiring, &control_engine, control](
                               std::uint64_t run_id, sim::Time deadline) {
      wiring.emit_trace(control,
                        metrics::TraceRecord{control_engine.now(),
                                             metrics::TraceEvent::kGlobalSubmitted,
                                             0, run_id, -1, deadline});
    });
    for (auto& node : nodes) {
      const int lane = node->index();
      sim::Engine* lane_engine = &wiring.engine_for_lane(lane);
      node->set_observer([&wiring, lane, lane_engine](
                             sched::Node::Event e, const task::SimpleTask& t) {
        wiring.emit_trace(lane, metrics::TraceRecord{lane_engine->now(),
                                                     to_trace_event(e), t.id,
                                                     t.owner_run, lane,
                                                     t.attrs.virtual_deadline});
      });
    }
  }
  // Locals are recorded where they left (local aborts and faults count as
  // misses); subtasks go back to the process manager through the wiring.
  for (auto& node : nodes) {
    const int lane = node->index();
    node->set_outcome_handler([&wiring, &pm, lane](
                                  const task::TaskPtr& t,
                                  sched::Node::Outcome outcome) {
      if (t->kind == task::TaskKind::kLocal) {
        wiring.emit_simple(lane, *t);
      } else {
        wiring.subtask_outcome(pm, lane, t, outcome);
      }
    });
  }

  // --- workload ----------------------------------------------------------------
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
        wiring.engine_for_lane(i), *nodes[static_cast<std::size_t>(i)],
        collector, master.split(), lc));
    wiring.hook_local_source(*local_sources.back(), i);
    local_sources.back()->start();
  }

  // One global source; global_kind picks the shape of its trees.
  // "least-queued" reads live node state, so validate() rejects it with
  // shards > 1; "uniform" never dereferences the nodes.
  auto placement = workload::make_placement(
      config.placement,
      std::vector<const sched::Node*>(node_ptrs.begin(), node_ptrs.end()));
  const workload::ExecDistribution exec = workload::make_exec_distribution(
      config.service_dist, 1.0 / config.mu_subtask, config.service_cv);
  workload::Shape shape;
  if (config.global_kind == GlobalKind::kParallel) {
    shape = workload::FlatShape{.k = config.k,
                                .n_min = config.n_min,
                                .n_max = config.n_max,
                                .exec = exec,
                                .exec_spread = config.subtask_exec_spread,
                                .pex = config.pex,
                                .placement = std::move(placement)};
  } else {
    workload::StagedShape staged{.k = config.k,
                                 .stage_widths = config.stage_widths,
                                 .exec = exec,
                                 .pex = config.pex,
                                 .placement = std::move(placement),
                                 .mean_msg_time = config.mean_msg_time};
    for (int link = 0; link < link_count; ++link) {
      staged.link_nodes.push_back(config.k + link);
    }
    shape = std::move(staged);
  }
  workload::GlobalSource::Config gc;
  gc.lambda = rates.lambda_global;
  const auto [gslack_min, gslack_max] = config.resolved_global_slack();
  gc.slack_min = gslack_min;
  gc.slack_max = gslack_max;
  gc.burst_factor = config.global_burst_factor;
  gc.burst_cycle = config.global_burst_cycle;
  gc.admission = admission_ptr;
  workload::GlobalSource global_source(control_engine, pm, master.split(), gc,
                                       std::move(shape));
  global_source.start();

  // --- fault injection --------------------------------------------------------
  // The fault stream is split from the master only when faults are on, and
  // only after every workload source took its split: a fail-free config
  // draws exactly the same substreams as a build without this block, so
  // fault_rate = 0 reproduces the seed numbers bit-for-bit.
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
    wiring.plan_outages(plan, total_nodes);
    injector = std::make_unique<fault::FaultInjector>(
        control_engine, node_ptrs, config.k, std::move(plan),
        fault_master.split());
    std::vector<sim::Engine*> lane_engines;
    lane_engines.reserve(static_cast<std::size_t>(total_nodes));
    for (int i = 0; i < total_nodes; ++i) {
      lane_engines.push_back(&wiring.engine_for_lane(i));
    }
    injector->set_lane_engines(std::move(lane_engines));
    injector->arm();
  }

  // --- run -------------------------------------------------------------------
  wiring.run(config.sim_time);

  // --- results ----------------------------------------------------------------
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
  result.events_fired = wiring.events_fired();
  for (const auto& src : local_sources) {
    result.locals_generated += src->generated();
  }
  result.globals_generated = global_source.generated();
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
    result.globals_not_admitted = global_source.not_admitted();
  }
  result.fabric = wiring.fabric_stats();
  return result;
}

}  // namespace sda::exp::detail
