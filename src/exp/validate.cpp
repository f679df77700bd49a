// ExperimentConfig::validate(): whole-config checks that report every
// problem at once (declared in config.hpp).
#include "src/exp/config.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "src/core/admission.hpp"
#include "src/core/strategy.hpp"
#include "src/sched/ready_queue.hpp"
#include "src/sim/timer_queue.hpp"
#include "src/workload/exec_dist.hpp"
#include "src/workload/placement.hpp"

namespace sda::exp {

std::vector<std::string> ExperimentConfig::validate_admission() const {
  try {
    // The controller's constructor validates the bound, thresholds,
    // stretch, and headroom; borrow its checks.
    (void)core::AdmissionController(admission_config());
  } catch (const std::exception& e) {
    return {e.what()};
  }
  return {};
}

std::vector<std::string> ExperimentConfig::validate() const {
  const ExperimentConfig& c = *this;
  std::vector<std::string> problems;
  auto bad = [&](const std::string& what) { problems.push_back(what); };

  // --- system ---------------------------------------------------------------
  if (c.k <= 0) bad("k must be positive");
  if (!c.node_speeds.empty()) {
    if (c.node_speeds.size() != static_cast<std::size_t>(c.k)) {
      bad("node_speeds must be empty or have exactly k entries");
    }
    for (double s : c.node_speeds) {
      if (!(s > 0.0)) {
        bad("node speeds must be positive");
        break;
      }
    }
  }
  try {
    const sched::Policy policy = sched::parse_policy(c.scheduler_policy);
    // Preemption compares virtual deadlines; under any other queue order
    // the head served next may be neither the arrival nor the victim.
    if (c.preemptive && policy != sched::Policy::kEdf) {
      bad("preemptive=1 needs scheduler_policy=edf (preemptive-resume EDF)");
    }
  } catch (const std::exception& e) {
    bad(e.what());
  }

  // --- strategies ------------------------------------------------------------
  try {
    (void)core::make_psp_strategy(c.psp);
  } catch (const std::exception& e) {
    bad(e.what());
  }
  try {
    (void)core::make_ssp_strategy(c.ssp);
  } catch (const std::exception& e) {
    bad(e.what());
  }
  try {
    (void)sim::make_timer_queue(c.timer_queue);
  } catch (const std::exception& e) {
    bad(e.what());
  }

  // --- workload --------------------------------------------------------------
  if (c.load < 0.0) bad("load must be >= 0");
  // Overload (load >= 1) is a legal, deliberate configuration when the
  // admission gate is on — that is the regime it exists for.  Without
  // the gate the queues grow without bound, so keep the guard.
  if (c.load >= 1.0 && !c.admission) {
    bad("load must be < 1 for a stable system (or enable admission=1)");
  }
  if (c.frac_local < 0.0 || c.frac_local > 1.0) {
    bad("frac_local must be in [0, 1]");
  }
  if (c.mu_local <= 0.0) bad("mu_local must be positive");
  if (c.mu_subtask <= 0.0) bad("mu_subtask must be positive");
  if (c.slack_min < 0.0 || c.slack_min > c.slack_max) {
    bad("need 0 <= slack_min <= slack_max");
  }
  if (c.local_burst_factor < 1.0) bad("local_burst_factor must be >= 1");
  if (c.local_burst_cycle <= 0.0) bad("local_burst_cycle must be positive");
  if (c.subtask_exec_spread < 1.0) bad("subtask_exec_spread must be >= 1");
  try {
    (void)workload::make_placement(c.placement, {});
  } catch (const std::exception& e) {
    bad(e.what());
  }
  try {
    (void)workload::make_exec_distribution(c.service_dist, 1.0, c.service_cv);
  } catch (const std::exception& e) {
    bad(e.what());
  }

  // Each global kind refuses the other kind's keys away from their defaults
  // (the runner would ignore them, and --trace sizes tracks by link_count).
  const bool parallel = c.global_kind == GlobalKind::kParallel;
  const ExperimentConfig defaults;
  for (const std::string& key : kind_only_keys(
           parallel ? GlobalKind::kGraph : GlobalKind::kParallel)) {
    if (c.get(key) != defaults.get(key)) {
      bad(key + " applies to global_kind=" +
          (parallel ? "graph" : "parallel") + " only");
    }
  }
  if (parallel) {
    if (c.n_min < 1 || c.n_min > c.n_max) bad("need 1 <= n_min <= n_max");
    if (c.n_max > c.k) {
      bad("n_max exceeds k (parallel subtasks need distinct nodes)");
    }
  } else {
    if (c.stage_widths.empty()) bad("stage_widths must not be empty");
    for (int w : c.stage_widths) {
      if (w < 1 || w > c.k) {
        bad("every stage width must be in [1, k]");
        break;
      }
    }
    if (c.link_count < 0) bad("link_count must be >= 0");
    if (c.link_count > 0 && c.mean_msg_time <= 0.0) {
      bad("mean_msg_time must be positive when links are modeled");
    }
  }
  const auto [gs_min, gs_max] = c.resolved_global_slack();
  if (gs_min > gs_max) bad("global slack range is inverted");

  // --- faults / recovery -----------------------------------------------------
  if (c.fault_rate < 0.0 || c.fault_rate >= 1.0) {
    bad("fault_rate must be in [0, 1)");
  }
  if (c.crash_mean_uptime < 0.0) bad("crash_mean_uptime must be >= 0");
  if (c.crash_mean_uptime > 0.0 && c.crash_mean_downtime <= 0.0) {
    bad("crash_mean_downtime must be positive when crashes are enabled");
  }
  if (c.msg_loss_rate < 0.0 || c.msg_loss_rate >= 1.0) {
    bad("msg_loss_rate must be in [0, 1)");
  }
  if (c.msg_extra_delay_mean < 0.0) {
    bad("msg_extra_delay_mean must be >= 0");
  }
  if ((c.msg_loss_rate > 0.0 || c.msg_extra_delay_mean > 0.0) &&
      c.link_count == 0) {
    bad("message faults need link_count > 0 (kGraph workload)");
  }
  if (c.retry_backoff_base < 0.0) bad("retry_backoff_base must be >= 0");
  if (c.retry_backoff_base > 0.0 && c.retry_backoff_factor < 1.0) {
    bad("retry_backoff_factor must be >= 1");
  }
  if (c.retry_deadline != "sda" && c.retry_deadline != "stale") {
    bad("retry_deadline must be \"sda\" or \"stale\"");
  }

  // --- admission -------------------------------------------------------------
  if (c.global_burst_factor < 1.0) bad("global_burst_factor must be >= 1");
  if (c.global_burst_cycle <= 0.0) bad("global_burst_cycle must be positive");
  if (c.admission) {
    for (const std::string& p : c.validate_admission()) bad(p);
    if (c.global_kind != GlobalKind::kParallel) {
      bad("admission=1 currently supports global_kind=parallel only");
    }
  }

  // --- parallel execution ----------------------------------------------------
  if (c.shards < 1) bad("shards must be >= 1");
  const int total_nodes = c.k + (c.global_kind == GlobalKind::kGraph
                                     ? std::max(c.link_count, 0)
                                     : 0);
  if (c.shards > total_nodes) {
    bad("shards must not exceed the node count (k" +
        std::string(c.global_kind == GlobalKind::kGraph ? " + link_count" : "") +
        " = " + std::to_string(total_nodes) + ")");
  }
  if (c.net_latency < 0.0) bad("net_latency must be >= 0");
  if (c.shards > 1 && c.placement == "least-queued") {
    // Least-queued placement reads live node queue depths from the control
    // lane, which other shards own; only the serial engine can do that.
    bad("placement=least-queued requires shards=1 (reads live node state)");
  }

  // --- run control -------------------------------------------------------------
  if (c.sim_time <= 0.0) bad("sim_time must be positive");
  if (c.replications < 1) bad("replications must be >= 1");
  if (c.warmup_fraction < 0.0 || c.warmup_fraction >= 1.0) {
    bad("warmup_fraction must be in [0, 1)");
  }
  return problems;
}

void ExperimentConfig::validate_or_throw() const {
  const auto problems = validate();
  if (problems.empty()) return;
  std::ostringstream os;
  os << "invalid experiment config:";
  for (const auto& p : problems) os << "\n  - " << p;
  throw std::invalid_argument(os.str());
}

}  // namespace sda::exp
