#include "src/exp/runner.hpp"

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/exp/runner_detail.hpp"
#include "src/exp/validate.hpp"

#include "src/core/strategy.hpp"
#include "src/fault/fault_plan.hpp"
#include "src/fault/injector.hpp"
#include "src/sched/node.hpp"
#include "src/sched/scheduler.hpp"
#include "src/sim/engine.hpp"
#include "src/util/rng.hpp"
#include "src/workload/global_source.hpp"
#include "src/workload/local_source.hpp"
#include "src/workload/rates.hpp"
#include "src/workload/taskgraph_source.hpp"

namespace sda::exp {

using detail::local_id_base;
using detail::to_trace_event;

RunResult run_once(const ExperimentConfig& config, std::uint64_t seed,
                   metrics::Tracer* tracer) {
  // Reject inconsistent configs with actionable errors before any part of
  // the system is assembled (callers going through run_experiment have
  // already paid this, but run_once is a public entry point of its own).
  config.validate_or_throw();

  // Sharded (or latency-modeling) runs go through the time-window fabric;
  // the default shards=1, net_latency=0 keeps this original synchronous
  // single-engine path untouched.
  if (detail::message_mode(config)) {
    return detail::run_once_sharded(config, seed, tracer);
  }

  sim::Engine engine(sim::make_timer_queue(config.timer_queue));
  util::Rng master(seed);

  // --- nodes ---------------------------------------------------------------
  std::vector<std::unique_ptr<sched::Node>> nodes;
  std::vector<sched::Node*> node_ptrs;
  nodes.reserve(static_cast<std::size_t>(config.k));
  const int link_count =
      config.global_kind == GlobalKind::kGraph ? config.link_count : 0;
  const int total_nodes = config.k + link_count;
  for (int i = 0; i < total_nodes; ++i) {
    sched::Node::Config nc;
    nc.index = i;
    nc.abort_policy = config.local_abort;
    nc.preemptive = config.preemptive;
    if (!config.node_speeds.empty() && i < config.k) {
      nc.speed = config.node_speeds[static_cast<std::size_t>(i)];
    }
    nodes.push_back(std::make_unique<sched::Node>(
        engine, sched::make_scheduler(config.scheduler_policy), nc));
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
  core::ProcessManager pm(engine, node_ptrs, std::move(pmc));

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

  // --- metrics ----------------------------------------------------------------
  metrics::Collector collector;
  collector.set_warmup(config.warmup_fraction * config.sim_time);
  if (config.tardiness_histograms) collector.enable_tardiness_histograms();
  if (config.distributions) collector.enable_distributions();
  pm.set_global_handler([&, tracer](const core::GlobalTaskRecord& rec) {
    if (admission_ptr != nullptr) admission_ptr->on_finished(rec.run_id);
    collector.record_global(rec);
    if (tracer != nullptr) {
      const metrics::TraceEvent ev =
          rec.shed ? metrics::TraceEvent::kGlobalShed
                   : (rec.aborted ? metrics::TraceEvent::kGlobalAborted
                                  : metrics::TraceEvent::kGlobalCompleted);
      tracer->add(metrics::TraceRecord{rec.finished_at, ev, 0, rec.run_id, -1,
                                       rec.real_deadline});
    }
  });
  pm.set_subtask_handler(
      [&](const task::SimpleTask& t) { collector.record_simple(t); });
  if (tracer != nullptr) {
    pm.set_submit_observer(
        [&engine, tracer](std::uint64_t run_id, sim::Time deadline) {
          tracer->add(metrics::TraceRecord{engine.now(),
                                           metrics::TraceEvent::kGlobalSubmitted,
                                           0, run_id, -1, deadline});
        });
  }
  if (tracer != nullptr) {
    for (auto& node : nodes) {
      const int node_index = node->index();
      node->set_observer([&engine, tracer, node_index](
                             sched::Node::Event e, const task::SimpleTask& t) {
        tracer->add(metrics::TraceRecord{engine.now(), to_trace_event(e),
                                         t.id, t.owner_run, node_index,
                                         t.attrs.virtual_deadline});
      });
    }
  }

  for (auto& node : nodes) {
    node->set_completion_handler([&](const task::TaskPtr& t) {
      if (t->kind == task::TaskKind::kLocal) {
        collector.record_simple(*t);
      } else {
        pm.handle_completion(t);
      }
    });
    node->set_abort_handler([&](const task::TaskPtr& t) {
      if (t->kind == task::TaskKind::kLocal) {
        collector.record_simple(*t);  // a locally aborted local is a miss
      } else {
        pm.handle_local_abort(t);
      }
    });
    node->set_failure_handler([&](const task::TaskPtr& t) {
      if (t->kind == task::TaskKind::kLocal) {
        collector.record_simple(*t);  // a fault-killed local is a miss
      } else {
        pm.handle_failure(t);  // recovery policy decides: retry or shed
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
        engine, *nodes[static_cast<std::size_t>(i)], collector,
        master.split(), lc));
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
    gc.placement = workload::make_placement(
        config.placement,
        std::vector<const sched::Node*>(node_ptrs.begin(), node_ptrs.end()));
    gc.burst_factor = config.global_burst_factor;
    gc.burst_cycle = config.global_burst_cycle;
    gc.admission = admission_ptr;
    parallel_source = std::make_unique<workload::ParallelGlobalSource>(
        engine, pm, master.split(), gc);
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
        engine, pm, master.split(), gc);
    graph_source->start();
  }

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
    injector = std::make_unique<fault::FaultInjector>(
        engine, node_ptrs, config.k, std::move(plan), fault_master.split());
    injector->arm();
  }

  // --- run -------------------------------------------------------------------
  engine.run_until(config.sim_time);

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
  result.events_fired = engine.events_fired();
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
  return result;
}

metrics::Report run_experiment(const ExperimentConfig& config) {
  return run_experiment(config, util::ThreadPool::shared(), nullptr);
}

metrics::Report run_experiment(const ExperimentConfig& config,
                               util::ThreadPool& pool,
                               std::vector<std::uint64_t>* fingerprints) {
  validate_or_throw(config);
  // Replications are fully independent simulations, so fan them out over
  // the pool; results are folded in replication order below, keeping the
  // report bit-identical to the sequential fold regardless of pool size.
  const std::size_t reps = static_cast<std::size_t>(config.replications);
  std::vector<metrics::Collector> collectors(reps);
  std::vector<std::uint64_t> fps(fingerprints != nullptr ? reps : 0);
  auto one_rep = [&](std::size_t rep) {
    const std::uint64_t seed =
        replication_seed(config.seed, static_cast<int>(rep));
    if (fingerprints != nullptr) {
      // Capacity 1: only the rolling fingerprint matters, not the records.
      metrics::Tracer tracer(1);
      collectors[rep] = std::move(run_once(config, seed, &tracer).collector);
      fps[rep] = tracer.fingerprint();
    } else {
      collectors[rep] = std::move(run_once(config, seed).collector);
    }
  };
  if (detail::message_mode(config)) {
    // A sharded replication already spawns `shards` worker threads; fanning
    // replications over the pool on top of that would oversubscribe every
    // core.  Replication order is the fold order either way.
    for (std::size_t rep = 0; rep < reps; ++rep) one_rep(rep);
  } else {
    pool.parallel_for(reps, one_rep);
  }
  if (fingerprints != nullptr) *fingerprints = std::move(fps);
  metrics::Report report;
  for (const metrics::Collector& c : collectors) report.add_replication(c);
  return report;
}

}  // namespace sda::exp
