#include "src/core/admission.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "src/core/invariants.hpp"
#include "src/util/feq.hpp"
#include "src/util/fnv.hpp"

namespace sda::core {

namespace {

/// Windows and completion times are sums of doubles; a job finishing
/// exactly at its deadline must not fail by one ulp.
constexpr double kEps = 1e-9;

/// A dead window still carrying demand can contribute unbounded
/// density; clamp so the candidate fails the test instead of dividing
/// by zero.
constexpr double kMinWindow = 1e-12;

}  // namespace

bool utilization_test(const std::vector<LedgerJob>& jobs, double now,
                      double bound) {
  double density = 0.0;
  for (const LedgerJob& j : jobs) {
    if (j.demand <= 0.0) continue;
    const double release = std::max(j.release, now);
    const double window = j.deadline - release;
    if (window <= 0.0) return false;  // demand left, window gone
    density += j.demand / std::max(window, kMinWindow);
  }
  return density <= bound + kEps;
}

bool completion_time_test(const std::vector<LedgerJob>& jobs, double now) {
  const std::size_t n = jobs.size();
  std::vector<double> remaining(n), release(n);
  std::vector<char> finished(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    remaining[i] = jobs[i].demand;
    release[i] = std::max(jobs[i].release, now);
    if (remaining[i] <= 0.0) finished[i] = 1;
  }
  std::size_t done = static_cast<std::size_t>(
      std::count(finished.begin(), finished.end(), char{1}));

  double t = now;
  while (done < n) {
    // Earliest deadline among released unfinished jobs runs; track the
    // next release so a future arrival can preempt it.
    std::size_t best = n;
    double next_release = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      if (finished[i]) continue;
      if (release[i] <= t + kEps) {
        if (best == n || jobs[i].deadline < jobs[best].deadline) best = i;
      } else {
        next_release = std::min(next_release, release[i]);
      }
    }
    if (best == n) {  // idle until the next release
      t = next_release;
      continue;
    }
    const double completion = t + remaining[best];
    if (next_release < completion) {
      remaining[best] -= next_release - t;
      t = next_release;
      continue;
    }
    t = completion;
    if (t > jobs[best].deadline + kEps) return false;
    finished[best] = 1;
    ++done;
  }
  return true;
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
  if (config_.util_bound <= 0.0) {
    throw std::invalid_argument("AdmissionController: util_bound <= 0");
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
  if (config_.plan_cache) {
    cache_ = std::make_unique<PlanCache>(config_.plan_cache_capacity);
  }
  ledgers_.resize(static_cast<std::size_t>(config_.node_count));
}

std::size_t AdmissionController::ledger_size() const noexcept {
  util::RoleGuard own(owner_);
  std::size_t total = 0;
  for (const auto& ledger : ledgers_) total += ledger.size();
  return total;
}

PlanCache::Stats AdmissionController::cache_stats() const noexcept {
  util::RoleGuard own(owner_);
  return cache_ ? cache_->stats() : PlanCache::Stats{};
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
                                         std::vector<LedgerJob>& jobs,
                                         std::vector<int>& sites,
                                         std::vector<PlanEntry>& plan,
                                         bool* cache_hit) {
  // Both cache paths evaluate the same normalized computation, so the
  // shifted absolute times below are bit-identical either way.
  const double rel_deadline = deadline - now;
  NormalizedPlan fresh;
  const NormalizedPlan* normalized = nullptr;
  if (cache_ != nullptr) {
    normalized =
        &cache_->lookup_or_compute(tree, rel_deadline, *psp_, *ssp_, cache_hit);
  } else {
    fresh = compute_normalized_plan(tree, rel_deadline, *psp_, *ssp_);
    normalized = &fresh;
    if (cache_hit != nullptr) *cache_hit = false;
  }

  const std::vector<const task::TreeNode*> leaves = task::leaves(tree);
  jobs.clear();
  sites.clear();
  plan.clear();
  jobs.reserve(leaves.size());
  sites.reserve(leaves.size());
  plan.reserve(leaves.size());
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const task::TreeNode* leaf = leaves[i];
    const NormalizedLeaf& a = (*normalized)[i];
    LedgerJob job;
    job.ticket = ticket;
    job.leaf = static_cast<std::uint32_t>(i);
    job.release = now + a.planned_dispatch;
    job.deadline = now + a.virtual_deadline;
    job.demand = leaf->pred_exec;
    jobs.push_back(job);
    sites.push_back(leaf->exec_node);
    plan.push_back({leaf->exec_node, job.release, job.deadline});
    if (leaf->exec_node >= static_cast<int>(ledgers_.size())) {
      ledgers_.resize(static_cast<std::size_t>(leaf->exec_node) + 1);
    }
  }
}

bool AdmissionController::feasible_with(const std::vector<LedgerJob>& candidate,
                                        const std::vector<int>& sites,
                                        double now) const {
  std::vector<int> distinct = sites;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());

  const double bound = state_ == OverloadState::kShedding
                           ? config_.util_bound * (1.0 - config_.shed_headroom)
                           : config_.util_bound;
  std::vector<LedgerJob> merged;
  for (const int site : distinct) {
    merged = ledgers_[static_cast<std::size_t>(site)];
    for (std::size_t i = 0; i < candidate.size(); ++i) {
      if (sites[i] == site) merged.push_back(candidate[i]);
    }
    if (!utilization_test(merged, now, bound) ||
        !completion_time_test(merged, now)) {
      return false;
    }
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

  std::vector<LedgerJob> jobs;
  std::vector<int> sites;

  auto attempt = [&](double eff_deadline) {
    plan_candidate(tree, now, eff_deadline, ticket, jobs, sites, out.plan,
                   &out.cache_hit);
    if (!feasible_with(jobs, sites, now)) {
      out.plan.clear();
      return false;
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ledgers_[static_cast<std::size_t>(sites[i])].push_back(jobs[i]);
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

AdmissionOutcome AdmissionController::decide(const task::TreeNode& tree,
                                             double now, double deadline,
                                             std::uint64_t ticket) {
  util::RoleGuard own(owner_);
  ++stats_.submitted;
  refresh(now);
  AdmissionOutcome out =
      negative_slack(tree, now, deadline)
          ? shed_outcome(state_, pressure_, deadline, "negative-slack")
          : try_admit(tree, now, deadline, ticket);
  record(stats_, out);
  return out;
}

AdmissionController::SubmitResult AdmissionController::submit(
    task::TreePtr tree, double now, double deadline, std::uint64_t ticket) {
  util::RoleGuard own(owner_);
  ++stats_.submitted;
  refresh(now);
  SubmitResult result;
  if (negative_slack(*tree, now, deadline)) {
    result.outcome =
        shed_outcome(state_, pressure_, deadline, "negative-slack");
    record(stats_, result.outcome);
    return result;
  }
  result.outcome = try_admit(*tree, now, deadline, ticket);
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
      if (out.decision == AdmissionDecision::kReject) break;  // still parked
    }
    record(stats_, out);
    resolved.emplace_back(head.ticket, std::move(out));
    queue_.pop_front();
  }
  return resolved;
}

std::vector<std::pair<std::uint64_t, AdmissionOutcome>>
AdmissionController::flush(double now) {
  util::RoleGuard own(owner_);
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

void AdmissionController::trip_shedding() {
  util::RoleGuard own(owner_);
  // Raise the smoothed pressure to the entry threshold: the state flips
  // now, and the ordinary EWMA decay in refresh() walks it back out
  // through the same hysteresis exits as a load-driven trip.
  pressure_ = std::max(pressure_, config_.enter_shedding);
  if (state_ != OverloadState::kShedding) {
    state_ = OverloadState::kShedding;
    ++stats_.to_shedding;
  }
}

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
    // Exact byte serialization of the parked tree — the same encoding
    // the plan cache keys on, so distinct trees never hash alike.
    const std::string key = plan_cache_key(*p.tree, p.deadline);
    util::fnv1a_mix(h, key.data(), key.size());
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
