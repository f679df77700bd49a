// Per-class missed-deadline accounting for one simulation replication.
//
// Every task that reaches a terminal state (completed or aborted) after the
// warm-up period contributes one observation to its class:  missed iff it
// was aborted or finished after its *real* deadline.  Work-weighted
// accounting supports the paper's "fraction of missed work" discussion
// (§6.1): at load 0.5, DIV-1 loses on missed-task *count* but wins on
// missed *work*.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/process_manager.hpp"
#include "src/metrics/percentile.hpp"
#include "src/metrics/task_class.hpp"
#include "src/task/task.hpp"
#include "src/util/stats.hpp"

namespace sda::metrics {

/// Terminal counts for one task class.
struct ClassCounts {
  std::uint64_t finished = 0;  ///< completed or aborted (terminal)
  std::uint64_t missed = 0;    ///< aborted, or completed past real deadline
  std::uint64_t aborted = 0;   ///< subset of missed that never completed
  double work_total = 0.0;     ///< sum of ex over terminal tasks
  double work_missed = 0.0;    ///< sum of ex over missed tasks

  /// Fraction of missed deadlines (MD in the paper). 0 when empty.
  double miss_rate() const noexcept {
    return finished ? static_cast<double>(missed) /
                          static_cast<double>(finished)
                    : 0.0;
  }

  /// Fraction of work that went to tardy tasks. 0 when no work recorded.
  double missed_work_rate() const noexcept {
    return work_total > 0.0 ? work_missed / work_total : 0.0;
  }
};

/// Timing profile for one class (response time = completion - arrival;
/// tardiness = max(0, completion - real deadline), zero for on-time tasks).
/// Aborted-and-never-completed tasks contribute no response sample but do
/// contribute tardiness measured at their abort time.
struct ClassTimings {
  util::RunningStat response;
  util::RunningStat tardiness;
};

/// Log-bucketed response-time + tardiness pair kept per task class and per
/// node when Collector::enable_distributions() was called.  The shared
/// geometry makes sets from independent replications merge() exactly.
struct DistributionSet {
  LogHistogram response;
  LogHistogram tardiness;

  void merge(const DistributionSet& other) {
    response.merge(other.response);
    tardiness.merge(other.tardiness);
  }
};

class Collector {
 public:
  /// Observations for tasks that arrived before @p t are discarded
  /// (transient warm-up).
  void set_warmup(double t) noexcept { warmup_ = t; }
  double warmup() const noexcept { return warmup_; }

  /// Records a terminal local task or subtask.  Requires a terminal state
  /// (kCompleted or kAborted).
  void record_simple(const task::SimpleTask& t);

  /// Records a terminal global task run.
  void record_global(const core::GlobalTaskRecord& rec);

  /// Raw terminal record: class @p cls, arrived at @p arrival, @p missed
  /// its deadline (and was @p aborted before finishing), carrying @p work
  /// execution-time units.  @p response is the completion latency (< 0 for
  /// tasks that never completed), @p tardiness is max(0, lateness), and
  /// @p node is the execution node (-1 for whole global runs, which have
  /// no single node).
  void record(int cls, double arrival, bool missed, bool aborted, double work,
              double response = -1.0, double tardiness = 0.0, int node = -1);

  /// Counts for one class (zeros when the class was never seen).
  ClassCounts counts(int cls) const;

  /// Timing profile for one class (empty stats when never seen).
  ClassTimings timings(int cls) const;

  // --- log-bucketed distribution telemetry --------------------------------
  /// Turns on per-class *and per-node* log-bucketed response/tardiness
  /// histograms (P50..P99.9 via metrics::summarize).  Call before the run;
  /// zero cost when off (one branch per record).
  void enable_distributions();
  bool distributions_enabled() const noexcept { return distributions_on_; }

  /// Classes / nodes with at least one recorded distribution sample.
  std::vector<int> distribution_classes() const;
  std::vector<int> distribution_nodes() const;

  /// Distribution pair for a class / node; nullptr when distributions are
  /// off or nothing was recorded there.
  const DistributionSet* class_distributions(int cls) const;
  const DistributionSet* node_distributions(int node) const;

  /// Merges another collector's distributions into this one (replication
  /// aggregation; the counting statistics are aggregated by Report
  /// instead).  Requires both collectors to have distributions enabled.
  void merge_distributions(const Collector& other);

  /// All classes seen, ascending.
  std::vector<int> classes() const;

  /// Work-weighted miss rate over *all* classes — the paper's "fraction of
  /// missed work".
  double overall_missed_work_rate() const noexcept;

  /// Total missed count over all classes (the "overall number of missed
  /// deadlines" the paper contrasts with missed work).
  std::uint64_t total_missed() const noexcept;
  std::uint64_t total_finished() const noexcept;

  // --- fault / recovery accounting (post-warmup global runs) --------------
  /// Fault retries summed over recorded global runs.
  std::uint64_t global_retries() const noexcept { return global_retries_; }
  /// Global runs dropped by the recovery policy.
  std::uint64_t shed_runs() const noexcept { return shed_runs_; }

 private:
  double warmup_ = 0.0;
  std::uint64_t global_retries_ = 0;
  std::uint64_t shed_runs_ = 0;
  std::map<int, ClassCounts> by_class_;
  std::map<int, ClassTimings> timings_;
  bool distributions_on_ = false;
  std::map<int, DistributionSet> class_dists_;
  std::map<int, DistributionSet> node_dists_;
};

}  // namespace sda::metrics
