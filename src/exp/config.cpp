#include "src/exp/config.hpp"

#include <cmath>
#include <sstream>

#include "src/core/admission.hpp"

namespace sda::exp {

std::pair<double, double> ExperimentConfig::resolved_global_slack() const {
  if (global_slack_min >= 0.0 && global_slack_max >= 0.0) {
    return {global_slack_min, global_slack_max};
  }
  if (global_kind == GlobalKind::kGraph) {
    const double stages = static_cast<double>(stage_widths.size());
    return {slack_min * stages, slack_max * stages};
  }
  return {slack_min, slack_max};
}

double ExperimentConfig::expected_global_work() const {
  if (global_kind == GlobalKind::kGraph) {
    int subtasks = 0;
    for (int w : stage_widths) subtasks += w;
    return static_cast<double>(subtasks) / mu_subtask;
  }
  // Spread model: E[s^U[-1,1]] = (s - 1/s) / (2 ln s) for s > 1.
  double spread_mean = 1.0;
  if (subtask_exec_spread > 1.0) {
    const double s = subtask_exec_spread;
    spread_mean = (s - 1.0 / s) / (2.0 * std::log(s));
  }
  return 0.5 * static_cast<double>(n_min + n_max) * spread_mean / mu_subtask;
}

core::AdmissionConfig ExperimentConfig::admission_config() const {
  core::AdmissionConfig a;
  a.node_count = k;
  a.psp = psp;
  a.ssp = ssp;
  a.util_bound = admission_util_bound;
  a.enter_degraded = admission_enter_degraded;
  a.exit_degraded = admission_exit_degraded;
  a.enter_shedding = admission_enter_shedding;
  a.exit_shedding = admission_exit_shedding;
  a.pressure_alpha = admission_pressure_alpha;
  a.degrade_stretch = admission_degrade_stretch;
  a.shed_headroom = admission_shed_headroom;
  return a;
}

std::string ExperimentConfig::describe() const {
  std::ostringstream os;
  os << "k=" << k << " " << scheduler_policy
     << (preemptive ? " (preemptive)" : "") << ", psp=" << psp
     << ", ssp=" << ssp << ", load=" << load << ", frac_local=" << frac_local;
  if (global_kind == GlobalKind::kParallel) {
    os << ", n=[" << n_min << ".." << n_max << "]";
  } else {
    os << ", stages={";
    for (std::size_t i = 0; i < stage_widths.size(); ++i) {
      os << (i ? "," : "") << stage_widths[i];
    }
    os << "}";
  }
  switch (pm_abort) {
    case core::PmAbortMode::kNone: break;
    case core::PmAbortMode::kRealDeadline: os << ", pm-abort"; break;
  }
  if (local_abort != sched::LocalAbortPolicy::kNone) os << ", local-abort";
  if (admission) {
    os << ", admission";
    if (global_burst_factor > 1.0) os << " burst=" << global_burst_factor;
  }
  if (faults_enabled()) {
    os << ", faults[";
    bool first = true;
    auto sep = [&] { os << (first ? "" : " "); first = false; };
    if (fault_rate > 0.0) { sep(); os << "rate=" << fault_rate; }
    if (crash_mean_uptime > 0.0) {
      sep();
      os << "crash=" << crash_mean_uptime << "/" << crash_mean_downtime;
    }
    if (msg_loss_rate > 0.0) { sep(); os << "loss=" << msg_loss_rate; }
    if (msg_extra_delay_mean > 0.0) {
      sep();
      os << "jitter=" << msg_extra_delay_mean;
    }
    os << "] retry=" << retry_deadline;
  }
  return os.str();
}

ExperimentConfig baseline_config() { return ExperimentConfig{}; }

std::vector<std::string> kind_only_keys(GlobalKind kind) {
  if (kind == GlobalKind::kParallel) {
    return {"n_min", "n_max", "subtask_exec_spread"};
  }
  return {"stage_widths", "link_count"};
}

ExperimentConfig graph_config(ExperimentConfig base) {
  const ExperimentConfig defaults;
  for (const std::string& key : kind_only_keys(GlobalKind::kParallel)) {
    base.set(key, defaults.get(key));
  }
  base.global_kind = GlobalKind::kGraph;
  base.stage_widths = {1, 4, 1, 4, 1};
  // global_slack_* stay negative: the derivation rule yields [6.25, 25].
  return base;
}

}  // namespace sda::exp
