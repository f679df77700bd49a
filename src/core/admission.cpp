#include "src/core/admission.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>

#include "src/core/invariants.hpp"
#include "src/util/feq.hpp"
#include "src/util/fnv.hpp"

namespace sda::core {

namespace {

/// Densities are sums of quotients of doubles; a ledger that fills its
/// node exactly must not fail by one ulp.
constexpr double kEps = 1e-9;

/// A dead window still carrying demand can contribute unbounded
/// density; clamp so the candidate fails the test instead of dividing
/// by zero.
constexpr double kMinWindow = 1e-12;

/// Adds @p j's density, its release clamped to @p now, to @p density.
/// False when the job still has demand but its window is gone.
bool add_density(const LedgerJob& j, double now, double& density) {
  if (j.demand <= 0.0) return true;
  const double window = j.deadline - std::max(j.release, now);
  if (window <= 0.0) return false;
  density += j.demand / std::max(window, kMinWindow);
  return true;
}

}  // namespace

bool utilization_test(const std::vector<LedgerJob>& jobs, double now,
                      double bound) {
  double density = 0.0;
  for (const LedgerJob& j : jobs) {
    if (!add_density(j, now, density)) return false;
  }
  return density <= bound + kEps;
}

const char* to_string(AdmissionDecision d) noexcept {
  switch (d) {
    case AdmissionDecision::kAdmit: return "admit";
    case AdmissionDecision::kAdmitDegraded: return "admit_degraded";
    case AdmissionDecision::kReject: return "reject";
    case AdmissionDecision::kShed: return "shed";
    case AdmissionDecision::kBackpressure: return "backpressure";
  }
  return "?";
}

const char* to_string(OverloadState s) noexcept {
  switch (s) {
    case OverloadState::kNormal: return "normal";
    case OverloadState::kDegraded: return "degraded";
    case OverloadState::kShedding: return "shedding";
  }
  return "?";
}

AdmissionController::AdmissionController(AdmissionConfig config)
    : config_(std::move(config)) {
  if (config_.node_count < 1) {
    throw std::invalid_argument("AdmissionController: node_count < 1");
  }
  // Above 1 the density bound no longer implies EDF feasibility, and it
  // is the only test the controller runs.
  if (!(config_.util_bound > 0.0 && config_.util_bound <= 1.0)) {
    throw std::invalid_argument(
        "AdmissionController: util_bound outside (0, 1]");
  }
  if (config_.exit_degraded > config_.enter_degraded ||
      config_.exit_shedding > config_.enter_shedding ||
      config_.enter_degraded > config_.enter_shedding) {
    throw std::invalid_argument(
        "AdmissionController: hysteresis thresholds must satisfy "
        "exit_degraded <= enter_degraded <= enter_shedding and "
        "exit_shedding <= enter_shedding");
  }
  if (config_.degrade_stretch < 1.0) {
    throw std::invalid_argument("AdmissionController: degrade_stretch < 1");
  }
  if (config_.shed_headroom < 0.0 || config_.shed_headroom >= 1.0) {
    throw std::invalid_argument(
        "AdmissionController: shed_headroom outside [0, 1)");
  }
  if (config_.pressure_alpha <= 0.0 || config_.pressure_alpha > 1.0) {
    throw std::invalid_argument(
        "AdmissionController: pressure_alpha outside (0, 1]");
  }
  psp_ = make_psp_strategy(config_.psp);
  ssp_ = make_ssp_strategy(config_.ssp);
  ledgers_.resize(static_cast<std::size_t>(config_.node_count));
}

std::size_t AdmissionController::ledger_size() const noexcept {
  util::RoleGuard own(owner_);
  std::size_t total = 0;
  for (const auto& ledger : ledgers_) total += ledger.size();
  return total;
}

double AdmissionController::raw_pressure() const {
  // Worst per-node ledger density over the jobs' *original* windows —
  // stable while a job lives, decays as jobs retire or expire.
  double worst = 0.0;
  for (const auto& ledger : ledgers_) {
    double density = 0.0;
    for (const LedgerJob& j : ledger) {
      if (j.demand <= 0.0) continue;
      density += j.demand / std::max(j.deadline - j.release, kMinWindow);
    }
    worst = std::max(worst, density);
  }
  return worst / config_.util_bound;
}

void AdmissionController::refresh(double now) {
  for (auto& ledger : ledgers_) {
    std::erase_if(ledger,
                  [now](const LedgerJob& j) { return j.deadline <= now; });
  }
  const double alpha = config_.pressure_alpha;
  pressure_ = alpha * raw_pressure() + (1.0 - alpha) * pressure_;

  OverloadState next = state_;
  switch (state_) {
    case OverloadState::kNormal:
      if (pressure_ >= config_.enter_shedding) {
        next = OverloadState::kShedding;
      } else if (pressure_ >= config_.enter_degraded) {
        next = OverloadState::kDegraded;
      }
      break;
    case OverloadState::kDegraded:
      if (pressure_ >= config_.enter_shedding) {
        next = OverloadState::kShedding;
      } else if (pressure_ <= config_.exit_degraded) {
        next = OverloadState::kNormal;
      }
      break;
    case OverloadState::kShedding:
      if (pressure_ <= config_.exit_shedding) {
        next = pressure_ <= config_.exit_degraded ? OverloadState::kNormal
                                                  : OverloadState::kDegraded;
      }
      break;
  }
  if (next != state_) {
    state_ = next;
    switch (next) {
      case OverloadState::kNormal: ++stats_.to_normal; break;
      case OverloadState::kDegraded: ++stats_.to_degraded; break;
      case OverloadState::kShedding: ++stats_.to_shedding; break;
    }
  }
}

void AdmissionController::plan_candidate(const task::TreeNode& tree,
                                         double now, double deadline,
                                         std::uint64_t ticket,
                                         std::vector<PlanEntry>& plan) {
  // The walk runs in normalized time (arrival 0, deadline relative) and
  // is shifted by now; the ledger windows are defined by this arithmetic.
  plan_assignment(tree, 0.0, deadline - now, *psp_, *ssp_, assignments_);
  jobs_.clear();
  sites_.clear();
  plan.clear();
  plan.reserve(assignments_.size());
  for (std::size_t i = 0; i < assignments_.size(); ++i) {
    const LeafAssignment& a = assignments_[i];
    const int site = a.leaf->exec_node;
    LedgerJob job;
    job.ticket = ticket;
    job.leaf = static_cast<std::uint32_t>(i);
    job.release = now + a.planned_dispatch;
    job.deadline = now + a.virtual_deadline;
    job.demand = a.leaf->pred_exec;
    jobs_.push_back(job);
    sites_.push_back(site);
    plan.push_back({site, job.release, job.deadline});
    if (site >= static_cast<int>(ledgers_.size())) {
      ledgers_.resize(static_cast<std::size_t>(site) + 1);
    }
  }
}

bool AdmissionController::feasible_with(double now) {
  distinct_sites_.assign(sites_.begin(), sites_.end());
  std::sort(distinct_sites_.begin(), distinct_sites_.end());
  distinct_sites_.erase(
      std::unique(distinct_sites_.begin(), distinct_sites_.end()),
      distinct_sites_.end());

  const double bound = state_ == OverloadState::kShedding
                           ? config_.util_bound * (1.0 - config_.shed_headroom)
                           : config_.util_bound;
  for (const int site : distinct_sites_) {
    // The site's ledger, then the candidate's jobs there: the order
    // utilization_test would sum the two concatenated.
    double density = 0.0;
    for (const LedgerJob& j : ledgers_[static_cast<std::size_t>(site)]) {
      if (!add_density(j, now, density)) return false;
    }
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      if (sites_[i] == site && !add_density(jobs_[i], now, density)) {
        return false;
      }
    }
    if (!(density <= bound + kEps)) return false;
  }
  return true;
}

AdmissionOutcome AdmissionController::try_admit(const task::TreeNode& tree,
                                                double now, double deadline,
                                                std::uint64_t ticket) {
  AdmissionOutcome out;
  out.state = state_;
  out.pressure = pressure_;
  out.deadline = deadline;

  auto attempt = [&](double eff_deadline) {
    plan_candidate(tree, now, eff_deadline, ticket, out.plan);
    if (!feasible_with(now)) {
      out.plan.clear();
      return false;
    }
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      ledgers_[static_cast<std::size_t>(sites_[i])].push_back(jobs_[i]);
    }
    out.deadline = eff_deadline;
    if (invariants::enabled()) {
      invariants::check_plan(tree, now, eff_deadline, *psp_, *ssp_);
    }
    return true;
  };

  switch (state_) {
    case OverloadState::kNormal:
      if (attempt(deadline)) {
        out.decision = AdmissionDecision::kAdmit;
        out.reason = "feasible";
      } else {
        out.decision = AdmissionDecision::kReject;
        out.reason = "infeasible";
      }
      break;
    case OverloadState::kDegraded:
      if (attempt(deadline)) {
        out.decision = AdmissionDecision::kAdmit;
        out.reason = "feasible";
      } else if (attempt(now + config_.degrade_stretch * (deadline - now))) {
        out.decision = AdmissionDecision::kAdmitDegraded;
        out.reason = "stretched-deadline";
      } else {
        out.decision = AdmissionDecision::kReject;
        out.reason = "infeasible-degraded";
      }
      break;
    case OverloadState::kShedding:
      if (attempt(deadline)) {
        out.decision = AdmissionDecision::kAdmit;
        out.reason = "within-headroom";
      } else {
        out.decision = AdmissionDecision::kShed;
        out.reason = "shedding";
      }
      break;
  }
  return out;
}

namespace {

void record(AdmissionStats& stats, const AdmissionOutcome& out) {
  switch (out.decision) {
    case AdmissionDecision::kAdmit: ++stats.admitted; break;
    case AdmissionDecision::kAdmitDegraded: ++stats.admitted_degraded; break;
    case AdmissionDecision::kReject: ++stats.rejected; break;
    case AdmissionDecision::kShed: ++stats.shed; break;
    case AdmissionDecision::kBackpressure: ++stats.backpressure; break;
  }
}

bool negative_slack(const task::TreeNode& tree, double now, double deadline) {
  return now + task::critical_path_pex(tree) > deadline + kEps;
}

AdmissionOutcome shed_outcome(OverloadState state, double pressure,
                              double deadline, const char* reason) {
  AdmissionOutcome out;
  out.decision = AdmissionDecision::kShed;
  out.state = state;
  out.pressure = pressure;
  out.deadline = deadline;
  out.reason = reason;
  return out;
}

}  // namespace

AdmissionOutcome AdmissionController::first_attempt(const task::TreeNode& tree,
                                                    double now,
                                                    double deadline,
                                                    std::uint64_t ticket) {
  ++stats_.submitted;
  refresh(now);
  if (negative_slack(tree, now, deadline)) {
    return shed_outcome(state_, pressure_, deadline, "negative-slack");
  }
  return try_admit(tree, now, deadline, ticket);
}

AdmissionOutcome AdmissionController::decide(const task::TreeNode& tree,
                                             double now, double deadline,
                                             std::uint64_t ticket) {
  util::RoleGuard own(owner_);
  AdmissionOutcome out = first_attempt(tree, now, deadline, ticket);
  record(stats_, out);
  return out;
}

AdmissionController::SubmitResult AdmissionController::submit(
    task::TreePtr tree, double now, double deadline, std::uint64_t ticket) {
  util::RoleGuard own(owner_);
  SubmitResult result;
  result.outcome = first_attempt(*tree, now, deadline, ticket);
  if (result.outcome.decision != AdmissionDecision::kReject) {
    record(stats_, result.outcome);
    return result;
  }
  // Infeasible right now but not hopeless: park it for pump() unless
  // the bounded queue is full (backpressure).
  if (queue_.size() >= config_.queue_capacity) {
    result.outcome.decision = AdmissionDecision::kBackpressure;
    result.outcome.reason = "queue-full";
    record(stats_, result.outcome);
    return result;
  }
  queue_.push_back(Pending{ticket, std::move(tree), deadline});
  ++stats_.queued;
  stats_.queue_high_water = std::max(stats_.queue_high_water, queue_.size());
  result.queued = true;
  return result;
}

std::vector<std::pair<std::uint64_t, AdmissionOutcome>>
AdmissionController::pump(double now) {
  util::RoleGuard own(owner_);
  return drain(now, /*end_of_stream=*/false);
}

std::vector<std::pair<std::uint64_t, AdmissionOutcome>>
AdmissionController::flush(double now) {
  util::RoleGuard own(owner_);
  return drain(now, /*end_of_stream=*/true);
}

std::vector<std::pair<std::uint64_t, AdmissionOutcome>>
AdmissionController::drain(double now, bool end_of_stream) {
  std::vector<std::pair<std::uint64_t, AdmissionOutcome>> resolved;
  if (queue_.empty()) return resolved;
  refresh(now);
  while (!queue_.empty()) {
    Pending& head = queue_.front();
    AdmissionOutcome out;
    if (negative_slack(*head.tree, now, head.deadline)) {
      out = shed_outcome(state_, pressure_, head.deadline,
                         "queued-slack-expired");
    } else {
      out = try_admit(*head.tree, now, head.deadline, head.ticket);
      if (out.decision == AdmissionDecision::kReject) {
        if (!end_of_stream) break;  // still parked
        // End of stream: there will be no later pump to admit it.
        out.decision = AdmissionDecision::kShed;
        out.reason = "flushed";
      }
    }
    record(stats_, out);
    resolved.emplace_back(head.ticket, std::move(out));
    queue_.pop_front();
  }
  return resolved;
}

void AdmissionController::on_finished(std::uint64_t ticket) {
  util::RoleGuard own(owner_);
  for (auto& ledger : ledgers_) {
    std::erase_if(ledger,
                  [ticket](const LedgerJob& j) { return j.ticket == ticket; });
  }
}

std::size_t AdmissionController::on_leaf_finished(std::uint64_t ticket,
                                                  std::uint32_t leaf) {
  util::RoleGuard own(owner_);
  std::size_t removed = 0;
  for (auto& ledger : ledgers_) {
    removed += std::erase_if(ledger, [ticket, leaf](const LedgerJob& j) {
      return j.ticket == ticket && j.leaf == leaf;
    });
  }
  return removed;
}

namespace {

/// Mixes an exact, prefix-free encoding of @p t into @p h: per node a
/// kind byte, then the exec node and pex bits (leaf) or the child count
/// and the children (composite), so distinct trees feed distinct bytes.
void mix_tree(std::uint64_t& h, const task::TreeNode& t) {
  switch (t.kind) {
    case task::TreeNode::Kind::Leaf:
      util::fnv1a_mix_value(h, 'L');
      util::fnv1a_mix_value(h, static_cast<std::uint32_t>(t.exec_node));
      util::fnv1a_mix_value(h, t.pred_exec);
      return;
    case task::TreeNode::Kind::Serial:
      util::fnv1a_mix_value(h, 'S');
      break;
    case task::TreeNode::Kind::Parallel:
      util::fnv1a_mix_value(h, 'P');
      break;
  }
  util::fnv1a_mix_value(h, static_cast<std::uint32_t>(t.children.size()));
  for (const auto& child : t.children) mix_tree(h, *child);
}

}  // namespace

std::uint64_t AdmissionController::fingerprint() const {
  util::RoleGuard own(owner_);
  std::uint64_t h = util::kFnvOffsetBasis;
  util::fnv1a_mix_value(h, static_cast<std::uint32_t>(state_));
  util::fnv1a_mix_value(h, pressure_);
  for (const auto& ledger : ledgers_) {
    const std::uint64_t n = ledger.size();
    util::fnv1a_mix_value(h, n);
    for (const LedgerJob& j : ledger) {
      util::fnv1a_mix_value(h, j.ticket);
      util::fnv1a_mix_value(h, j.leaf);
      util::fnv1a_mix_value(h, j.release);
      util::fnv1a_mix_value(h, j.deadline);
      util::fnv1a_mix_value(h, j.demand);
    }
  }
  const std::uint64_t depth = queue_.size();
  util::fnv1a_mix_value(h, depth);
  for (const Pending& p : queue_) {
    util::fnv1a_mix_value(h, p.ticket);
    util::fnv1a_mix_value(h, p.deadline);
    mix_tree(h, *p.tree);
    util::fnv1a_mix_value(h, p.deadline);
  }
  util::fnv1a_mix_value(h, stats_.submitted);
  util::fnv1a_mix_value(h, stats_.admitted);
  util::fnv1a_mix_value(h, stats_.admitted_degraded);
  util::fnv1a_mix_value(h, stats_.rejected);
  util::fnv1a_mix_value(h, stats_.shed);
  util::fnv1a_mix_value(h, stats_.backpressure);
  util::fnv1a_mix_value(h, stats_.queued);
  util::fnv1a_mix_value(h, stats_.to_degraded);
  util::fnv1a_mix_value(h, stats_.to_shedding);
  util::fnv1a_mix_value(h, stats_.to_normal);
  return h;
}

}  // namespace sda::core
