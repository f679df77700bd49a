// Per-node feasibility admission control and the overload policy layer.
//
// The paper assigns subtask deadlines for a fixed task set; a
// long-running deadline-assignment service must instead survive
// arbitrary offered load.  This module gates every submission through
// one per-node feasibility test, the density bound, over a ledger of
// already-admitted work, and wraps the test in an overload state machine
// that degrades gracefully instead of collapsing:
//
//   normal    — infeasible submissions are rejected (or parked in a
//               bounded retry queue, serve mode).
//   degraded  — a submission that fails with its own deadline is
//               retried with a stretched one (the imprecise-computation
//               playbook: deliver late-but-bounded rather than drop).
//   shedding  — only candidates that leave configurable headroom are
//               admitted; everything else is shed outright.
//
// Transitions use hysteresis on a *load-derived* pressure signal (EWMA
// of the worst per-node ledger density), never on decision outcomes —
// a shed-based signal would pin at 1 and the machine could never
// recover.  Ledger entries retire when their run finishes or their
// deadline passes, so pressure decays as load does.
//
// The controller draws no random numbers and never reads the wall
// clock: identical submission sequences produce identical decisions,
// which is what the serve-path fingerprint tests assert.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/core/sda.hpp"
#include "src/core/strategy.hpp"
#include "src/task/tree.hpp"
#include "src/util/mutex.hpp"
#include "src/util/thread_annotations.hpp"

namespace sda::core {

/// One admitted (or candidate) leaf job in a node's ledger: the window
/// the admission tests reserve for it.  Times are absolute; demand is
/// the leaf's pex — the demand visible to the service at admission.
struct LedgerJob {
  std::uint64_t ticket = 0;   ///< caller-chosen id, retires the job
  std::uint32_t leaf = 0;     ///< DFS leaf index within the ticket's tree
  double release = 0.0;       ///< planned dispatch of the leaf
  double deadline = 0.0;      ///< leaf's (virtual) deadline
  double demand = 0.0;        ///< pex
};

// --- the per-node feasibility test (a pure function) ---------------------
//
// Decides feasibility of one preemptive-EDF node running the given jobs,
// under the ledger's full-demand assumption (work already executed is
// not credited — conservative).  Releases before @p now are clamped to
// @p now: work cannot run in the past.  A candidate is admitted only when
// every node it touches passes.

/// Density bound: sum C_i / (d_i - r_i) <= bound, for a bound in (0, 1].
/// Running each job at the constant rate C_i / (d_i - r_i) across its own
/// window finishes it exactly at its deadline, and the rates of the jobs
/// live at any instant sum to at most the density, so with density <= 1
/// that fluid schedule fits on one processor.  Any interval [t1, t2]
/// then holds at most t2 - t1 of demand from jobs released and due
/// inside it — the processor-demand criterion — under which preemptive
/// EDF meets every deadline.  Sufficient, not necessary: EDF can finish
/// a short-window job early and still fit work the bound rejects.  The
/// comparison carries a 1e-9 tolerance, so a density in (1, 1 + 1e-9]
/// passes; sums of double quotients that fill the node exactly land
/// there by rounding.
bool utilization_test(const std::vector<LedgerJob>& jobs, double now,
                      double bound);

// --- the admission controller -------------------------------------------

enum class AdmissionDecision {
  kAdmit,          ///< feasible as submitted
  kAdmitDegraded,  ///< feasible only with a stretched deadline
  kReject,         ///< infeasible under current ledger (normal-state "no")
  kShed,           ///< dropped by overload policy or negative slack
  kBackpressure,   ///< bounded retry queue full — back off and resubmit
};

enum class OverloadState { kNormal, kDegraded, kShedding };

const char* to_string(AdmissionDecision d) noexcept;
const char* to_string(OverloadState s) noexcept;

struct AdmissionConfig {
  int node_count = 1;
  std::string psp = "ud";
  std::string ssp = "ud";

  double util_bound = 1.0;  ///< density budget per node, in (0, 1]

  // Overload state machine: pressure = EWMA of max per-node density
  // normalized by util_bound, updated on every decision event.
  double pressure_alpha = 0.3;    ///< EWMA weight of the newest sample
  double enter_degraded = 0.70;
  double exit_degraded = 0.55;    ///< must be <= enter_degraded
  double enter_shedding = 0.90;
  double exit_shedding = 0.70;    ///< must be <= enter_shedding
  double degrade_stretch = 1.5;   ///< deadline multiplier in degraded state
  double shed_headroom = 0.15;    ///< shedding: admit only below 1 - headroom

  // Bounded deferred-retry queue (serve mode; submit()/pump()).
  std::size_t queue_capacity = 64;
};

/// Counters of the deleted SDA plan cache.  Every plan is now computed
/// fresh, so AdmissionController::cache_stats() always returns zeros.
/// Kept only so perfbench/ builds until the benchmark drops its
/// core.plan_cache.* metrics.
struct PlanCache {
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };
};

struct AdmissionStats {
  std::uint64_t submitted = 0;  ///< decide() + submit() calls
  std::uint64_t admitted = 0;
  std::uint64_t admitted_degraded = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t backpressure = 0;
  std::uint64_t queued = 0;            ///< submissions parked at least once
  std::size_t queue_high_water = 0;
  std::uint64_t to_degraded = 0;   ///< state transitions observed
  std::uint64_t to_shedding = 0;
  std::uint64_t to_normal = 0;
};

/// Value-type copy of one leaf's assignment in an admitted plan.
/// Deliberately holds no pointer into the submitted tree: the tree can
/// die with the submit()/pump() call while the outcome outlives it (the
/// serve front door renders the reply afterwards — a LeafAssignment
/// here would be a use-after-free).
struct PlanEntry {
  int node = 0;                   ///< exec node of the leaf
  double planned_dispatch = 0.0;  ///< absolute planned dispatch
  double virtual_deadline = 0.0;  ///< absolute leaf deadline
};

/// The verdict on one submission.
struct AdmissionOutcome {
  AdmissionDecision decision = AdmissionDecision::kReject;
  OverloadState state = OverloadState::kNormal;  ///< state at decision time
  const char* reason = "";
  double pressure = 0.0;     ///< smoothed pressure at decision time
  double deadline = 0.0;     ///< effective absolute deadline (stretched
                             ///< when kAdmitDegraded; else as submitted)
  /// Absolute per-leaf assignments (DFS leaf order); empty unless
  /// admitted.
  std::vector<PlanEntry> plan;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Immediate decision for a submission with end-to-end deadline
  /// @p deadline (absolute) arriving at @p now.  @p ticket identifies
  /// the submission for later retirement via on_finished().  Never
  /// queues; the simulator's arrival gate uses this entry point.
  AdmissionOutcome decide(const task::TreeNode& tree, double now,
                          double deadline, std::uint64_t ticket);

  /// Serve-mode entry point: like decide(), but an infeasible
  /// submission outside the shedding state is parked in the bounded
  /// retry queue (returns kQueued=true, no decision yet) and retried
  /// by pump() as ledger capacity frees.  A full queue returns an
  /// immediate kBackpressure decision.
  struct SubmitResult {
    bool queued = false;
    AdmissionOutcome outcome;  ///< meaningful only when !queued
  };
  SubmitResult submit(task::TreePtr tree, double now, double deadline,
                      std::uint64_t ticket);

  /// Retries parked submissions in FIFO order at time @p now.  Emits a
  /// final outcome for each submission that now admits or whose slack
  /// has expired (shed); stops at the first still-infeasible head.
  std::vector<std::pair<std::uint64_t, AdmissionOutcome>> pump(double now);

  /// Resolves every still-parked submission at end of stream: one last
  /// admission attempt, then shed.
  std::vector<std::pair<std::uint64_t, AdmissionOutcome>> flush(double now);

  /// Retires all ledger entries of @p ticket (the run finished or was
  /// aborted) — frees its reserved capacity early.
  void on_finished(std::uint64_t ticket);

  /// Reservation-update path: retires only leaf @p leaf of @p ticket
  /// (that subtask finished), shrinking the node ledgers
  /// immediately instead of waiting for whole-run retirement.  Returns
  /// the number of ledger entries removed (0 when the reservation
  /// already expired — not an error for an admitted run).
  std::size_t on_leaf_finished(std::uint64_t ticket, std::uint32_t leaf);

  /// FNV-1a fingerprint of the complete decision-relevant state:
  /// overload state, pressure bits, every ledger entry in order, the
  /// retry queue (tickets, deadlines, exact tree serializations), and
  /// the decision counters.  Two controllers fed the same accepted
  /// submissions report the same fingerprint — the equality the
  /// journal-replay crash tests assert.
  std::uint64_t fingerprint() const;

  OverloadState state() const noexcept {
    util::RoleGuard own(owner_);
    return state_;
  }
  double pressure() const noexcept {
    util::RoleGuard own(owner_);
    return pressure_;
  }
  std::size_t queue_depth() const noexcept {
    util::RoleGuard own(owner_);
    return queue_.size();
  }
  std::size_t ledger_size() const noexcept;
  const AdmissionStats& stats() const noexcept {
    util::RoleGuard own(owner_);
    return stats_;
  }
  /// Always zero: see PlanCache.
  PlanCache::Stats cache_stats() const noexcept { return {}; }
  const AdmissionConfig& config() const noexcept { return config_; }

 private:
  struct Pending {
    std::uint64_t ticket = 0;
    task::TreePtr tree;
    double deadline = 0.0;
  };

  /// Expires dead ledger entries, refreshes pressure, and applies the
  /// hysteresis transitions.
  void refresh(double now) SDA_REQUIRES(owner_);
  double raw_pressure() const SDA_REQUIRES(owner_);

  /// decide() and submit() up to their verdict: counts the submission,
  /// refreshes, sheds negative slack, else try_admit().  Records nothing.
  AdmissionOutcome first_attempt(const task::TreeNode& tree, double now,
                                 double deadline, std::uint64_t ticket)
      SDA_REQUIRES(owner_);
  /// pump() and flush(): retries the queue head until one stays
  /// infeasible; with @p end_of_stream such a head is shed ("flushed")
  /// and the loop goes on until the queue is empty.
  std::vector<std::pair<std::uint64_t, AdmissionOutcome>> drain(
      double now, bool end_of_stream) SDA_REQUIRES(owner_);
  /// State-dependent admission attempt (no queueing, no pressure
  /// refresh).  On success the candidate's jobs are in the ledger.
  AdmissionOutcome try_admit(const task::TreeNode& tree, double now,
                             double deadline, std::uint64_t ticket)
      SDA_REQUIRES(owner_);
  /// Runs the density bound on every node the candidate (jobs_, sites_)
  /// touches: that node's ledger plus the candidate's jobs there.
  bool feasible_with(double now) SDA_REQUIRES(owner_);
  /// Plans the candidate and fills jobs_, sites_ and @p plan with its
  /// per-leaf jobs, exec nodes and absolute assignments.
  void plan_candidate(const task::TreeNode& tree, double now,
                      double deadline, std::uint64_t ticket,
                      std::vector<PlanEntry>& plan) SDA_REQUIRES(owner_);

  /// Single-owner role: the controller is driven by exactly one thread
  /// (the simulation's control lane or the serve session).  The retry
  /// queue, ledgers, and overload state are compile-time fenced to
  /// owner-entered call paths — a second thread calling in is a
  /// -Wthread-safety error, which is what makes the planned sharded
  /// controllers (ROADMAP item 2) an explicit design change rather than
  /// an accidental race.
  util::ThreadRole owner_;
  AdmissionConfig config_;
  std::unique_ptr<PspStrategy> psp_;
  std::unique_ptr<SspStrategy> ssp_;
  std::vector<std::vector<LedgerJob>> ledgers_
      SDA_GUARDED_BY(owner_);  ///< indexed by exec node
  std::deque<Pending> queue_ SDA_GUARDED_BY(owner_);
  OverloadState state_ SDA_GUARDED_BY(owner_) = OverloadState::kNormal;
  double pressure_ SDA_GUARDED_BY(owner_) = 0.0;
  AdmissionStats stats_ SDA_GUARDED_BY(owner_);

  // Per-attempt scratch, reused so that a warm controller plans and tests
  // a candidate without allocating.
  std::vector<LeafAssignment> assignments_ SDA_GUARDED_BY(owner_);
  std::vector<LedgerJob> jobs_ SDA_GUARDED_BY(owner_);  ///< one per leaf
  std::vector<int> sites_ SDA_GUARDED_BY(owner_);       ///< node per job
  std::vector<int> distinct_sites_ SDA_GUARDED_BY(owner_);
};

}  // namespace sda::core
