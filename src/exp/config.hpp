// Experiment configuration — the programmatic form of the paper's Table 1.
//
// One ExperimentConfig fully describes a simulated system (nodes, scheduler
// policy, abortion regime), a deadline-assignment strategy pair (PSP x SSP),
// and a workload (load, frac_local, slack, global-task shape).  The
// baseline_config() values are exactly Table 1; experiments vary one or two
// fields from there.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/process_manager.hpp"
#include "src/sched/abort_policy.hpp"
#include "src/workload/pex_model.hpp"

namespace sda::core {
struct AdmissionConfig;
}  // namespace sda::core

namespace sda::exp {

/// Shape of the global-task population.
enum class GlobalKind {
  kParallel,  ///< flat [T1 || ... || Tn] tasks (Sections 4-7)
  kGraph,     ///< serial-parallel stage graphs (Section 8, Figure 14)
};

struct ExperimentConfig {
  // --- system -------------------------------------------------------------
  int k = 6;                            ///< number of nodes
  std::string scheduler_policy = "edf"; ///< "edf" | "fifo" | "spt" | "llf"
  sched::LocalAbortPolicy local_abort = sched::LocalAbortPolicy::kNone;
  bool preemptive = false;              ///< preemptive-resume EDF (ablation)
  /// Per-node speed factors (heterogeneous components, a §3.2
  /// generalization).  Empty = homogeneous (all 1.0).  Must have k entries
  /// otherwise; keep the mean at 1.0 for the `load` definition to stay
  /// comparable with the homogeneous system.
  std::vector<double> node_speeds;

  // --- deadline assignment -------------------------------------------------
  std::string psp = "ud";  ///< "ud" | "div-<x>" | "gf"
  std::string ssp = "ud";  ///< "ud" | "ed" | "eqs" | "eqf"
  core::PmAbortMode pm_abort = core::PmAbortMode::kNone;
  bool subtasks_non_abortable = false;  ///< §7.3 "special directives"

  // --- workload -------------------------------------------------------------
  double load = 0.5;
  double frac_local = 0.75;
  double mu_local = 1.0;    ///< local service rate (mean ex = 1/mu_local = 1)
  double mu_subtask = 1.0;  ///< subtask service rate

  /// Local-arrival burstiness (interrupted Poisson; 1 = the paper's pure
  /// Poisson).  Mean offered load is unchanged — only its variability.
  double local_burst_factor = 1.0;
  double local_burst_cycle = 50.0;

  /// Service-time distribution for locals and subtasks: "exponential" (the
  /// paper, CV = 1), "deterministic" (CV = 0), "uniform" (over [0, 2*mean],
  /// CV ~ 0.58), or "hyperexp" (CV = service_cv > 1).  Means stay 1/mu.
  std::string service_dist = "exponential";
  double service_cv = 4.0;  ///< hyperexp only
  double slack_min = 1.25;  ///< local-task slack range [S_min, S_max]
  double slack_max = 5.0;

  GlobalKind global_kind = GlobalKind::kParallel;
  int n_min = 4;  ///< parallel kind: subtasks per global task
  int n_max = 4;
  std::vector<int> stage_widths = {1, 4, 1, 4, 1};  ///< graph kind (Fig. 14)

  /// Communication modeling for kGraph workloads (§3.2's "links are
  /// resources too"): link_count extra nodes indexed [k, k+link_count) are
  /// created, and a message subtask (mean mean_msg_time) is inserted
  /// between consecutive stages on a uniformly chosen link.  Local tasks
  /// never run on links, and message work is excluded from the compute
  /// `load` definition.
  int link_count = 0;
  double mean_msg_time = 0.25;

  /// Global-task slack range; negative values mean "derive from the local
  /// range": equal to it for kParallel, scaled by the stage count for
  /// kGraph (the §8 experiment's [6.25, 25] = 5 x [1.25, 5]).
  double global_slack_min = -1.0;
  double global_slack_max = -1.0;

  workload::PexModel pex = workload::PexModel::exact();

  /// §7.4 extension: per-subtask exponential mean spread factor (>= 1;
  /// 1 = the paper's homogeneous subtasks).  kParallel workloads only:
  /// validate() rejects a spread with kGraph.
  double subtask_exec_spread = 1.0;

  /// Placement of parallel subtasks (and of each kGraph stage): "uniform"
  /// (the paper's model) or "least-queued" (extension ablation).
  std::string placement = "uniform";

  /// Collect log-bucketed response-time/tardiness distributions per task
  /// class *and per node* (P50/P90/P99/P99.9, mergeable across
  /// replications — see metrics::DistributionSet).  Off by default; the
  /// collection never touches the event stream or RNG, so determinism
  /// fingerprints are identical either way.
  bool distributions = false;

  // --- fault injection (robustness extension; all off by default) ----------
  /// Per-service-attempt probability that a subtask attempt fails partway
  /// through (work done on the attempt is lost).  Compute nodes only.
  double fault_rate = 0.0;
  /// Node crash/repair process: each compute node alternates exponential
  /// up intervals (mean crash_mean_uptime) and down intervals (mean
  /// crash_mean_downtime).  0 uptime disables crashes.
  double crash_mean_uptime = 0.0;
  double crash_mean_downtime = 0.0;
  /// Whether a crash drops the node's whole ready queue (true) or merely
  /// freezes it until recovery (false).
  bool crash_discards_queue = true;
  /// Link-node faults (kGraph + link_count > 0 workloads): per-transmission
  /// loss probability and mean of an exponential extra delay.
  double msg_loss_rate = 0.0;
  double msg_extra_delay_mean = 0.0;

  // --- recovery policy -----------------------------------------------------
  /// Retries a global run may consume before it is shed; <0 = library
  /// default (core::RecoveryPolicy).
  int max_retries_per_run = -1;
  /// Exponential backoff before a retry: delay = base * factor^(attempt-1).
  /// base 0 retries immediately.
  double retry_backoff_base = 0.0;
  double retry_backoff_factor = 2.0;
  /// Resubmit to an alternate same-pool node when the original is down.
  bool retry_failover = true;
  /// Virtual deadline carried by a retried subtask: "sda" re-runs the
  /// SSP/PSP assignment over the unfinished remainder with the slack left
  /// at retry time; "stale" reuses the original assignment.
  std::string retry_deadline = "sda";
  /// Shed a run outright when its remaining critical path cannot meet the
  /// real deadline even with zero queueing.
  bool shed_negative_slack = true;

  // --- online admission control (overload robustness extension) -----------
  /// Gate every global arrival through core::AdmissionController: per-node
  /// feasibility tests over the ledger of admitted work, plus the
  /// normal/degraded/shedding overload state machine.  Off by default; the
  /// gate draws no RNG, so turning it off reproduces the ungated system
  /// bit for bit.  With admission on, `load` >= 1 becomes a legal
  /// (deliberate-overload) configuration.
  bool admission = false;
  double admission_util_bound = 1.0;
  /// Hysteresis thresholds on smoothed pressure (worst per-node ledger
  /// density / util bound): enter/exit the degraded and shedding states.
  double admission_enter_degraded = 0.70;
  double admission_exit_degraded = 0.55;
  double admission_enter_shedding = 0.90;
  double admission_exit_shedding = 0.70;
  double admission_pressure_alpha = 0.3;
  /// Degraded state: a submission infeasible at its own deadline is
  /// retried with deadline stretched by this factor.
  double admission_degrade_stretch = 1.5;
  /// Shedding state: admit only candidates that keep the worst node below
  /// util_bound * (1 - headroom).
  double admission_shed_headroom = 0.15;

  /// Global-arrival burstiness (interrupted Poisson, like the local
  /// knobs), for every global kind: 1 = the paper's pure Poisson,
  /// unchanged mean load.  The overload tests drive the admission state
  /// machine with this.
  double global_burst_factor = 1.0;
  double global_burst_cycle = 50.0;

  /// True when any fault knob is active (decides whether the runner builds
  /// a fault plan — and splits the fault RNG stream — at all).
  bool faults_enabled() const noexcept {
    return fault_rate > 0.0 || crash_mean_uptime > 0.0 ||
           msg_loss_rate > 0.0 || msg_extra_delay_mean > 0.0;
  }

  // --- parallel execution (conservative time-window PDES) ------------------
  /// Worker shards one replication is partitioned across (node i -> shard
  /// i mod shards; the process manager, global source and admission gate
  /// run on shard 0's extra control lane).  1 = the serial engine,
  /// byte-for-byte.  Requires 1 <= shards <= k + link_count.  Run
  /// fingerprints are bit-identical at any shard count; see DESIGN.md §4c.
  int shards = 1;
  /// Modeled control-plane message latency between the process manager
  /// and the nodes (dispatch, completion/abort/failure notifications) —
  /// also the PDES lookahead bound.  0 keeps the paper's instantaneous
  /// control plane: with shards=1 that is the serial path, with shards>1
  /// the window degrades to per-timestamp rounds (slower, never wrong).
  /// Any value > 0 changes the *model* (notifications arrive late), so
  /// compare fingerprints only across equal net_latency.
  double net_latency = 0.0;
  /// Timer-queue backend for every simulation engine (serial and per-shard):
  /// "heap" (the pooled 4-ary heap) or a name registered via
  /// sim::register_timer_queue, such as a decorator that counts queue
  /// operations.  Not a config key: only code that registers a backend has
  /// a reason to change it.
  std::string timer_queue = "heap";

  // --- run control ----------------------------------------------------------
  double sim_time = 200000.0;   ///< simulated time units per replication
  double warmup_fraction = 0.05;
  int replications = 2;
  std::uint64_t seed = 20250707;

  /// Resolved global slack range (applies the derivation rule above).
  std::pair<double, double> resolved_global_slack() const;

  /// The admission-controller config implied by the admission_* fields
  /// (node_count = k, strategies = psp/ssp).
  core::AdmissionConfig admission_config() const;

  /// Problems with the admission_* fields, found by building the
  /// controller they configure.  validate() reports them when
  /// admission=1; serving and journal recovery build a controller either
  /// way and must check them themselves.  Defined in validate.cpp.
  std::vector<std::string> validate_admission() const;

  /// Expected total execution demand of one global task (for the load
  /// equations): E[n]/mu_subtask for kParallel, sum(widths)/mu_subtask for
  /// kGraph.
  double expected_global_work() const;

  /// One-line description for bench output.
  std::string describe() const;

  // --- key=value API (the sda_run front door; see config_kv.cpp) ----------
  /// Sets one field by key, parsing @p value from text ("psp", "gf"),
  /// ("node_speeds", "1,2,0.5"), ("global_kind", "graph"), ...  Throws
  /// std::invalid_argument on an unknown key — with a "did you mean"
  /// suggestion when the key looks like a typo — or an unparsable value.
  void set(const std::string& key, const std::string& value);

  /// Current value of one field, in the same textual form set() accepts.
  /// Throws std::invalid_argument on unknown keys.
  std::string get(const std::string& key) const;

  /// Every field as (key, value) pairs in declaration order; feeding the
  /// pairs back through set() reproduces the config exactly (the kv
  /// round-trip test relies on this).
  std::vector<std::pair<std::string, std::string>> to_kv() const;

  /// All keys set()/get() understand, in declaration order.
  static std::vector<std::string> known_keys();

  /// Every problem with this config at once (empty = valid), with
  /// actionable messages: system shape (k, speeds, scheduler/placement
  /// names), strategy names, workload ranges (load, frac_local, slack,
  /// n vs k, stage widths), link modeling, and run control (sim_time,
  /// replications, warmup).  Defined in validate.cpp.
  std::vector<std::string> validate() const;

  /// Throws std::invalid_argument listing every problem when invalid.
  /// Called by run_once before any part of the system is assembled.
  void validate_or_throw() const;
};

/// Table 1: k=6, n=4, EDF, no abortion, load 0.5, frac_local 0.75,
/// slack U[1.25, 5], mu_local = mu_subtask = 1, strategies UD/UD.
ExperimentConfig baseline_config();

/// Section 8's serial-parallel configuration: baseline system with the
/// Figure 14 {1,4,1,4,1} graph workload and slack U[6.25, 25].
ExperimentConfig graph_config();

}  // namespace sda::exp
