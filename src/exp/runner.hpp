// Assembles a whole simulated system from an ExperimentConfig and runs it.
//
// run_once builds engine + k nodes + process manager + workload sources,
// wires the completion/abort plumbing, runs to the configured horizon, and
// returns the replication's Collector plus diagnostics.  run_experiment
// repeats with independent seeds and aggregates into a metrics::Report —
// one (strategy, parameter) data point of a paper figure.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/admission.hpp"
#include "src/exp/config.hpp"
#include "src/metrics/collector.hpp"
#include "src/metrics/report.hpp"
#include "src/metrics/trace.hpp"
#include "src/sched/node.hpp"
#include "src/util/thread_pool.hpp"

namespace sda::exp {

/// Outcome of a single replication.
struct RunResult {
  metrics::Collector collector;

  // Diagnostics for sanity checks and tests.
  double mean_utilization = 0.0;  ///< average *compute*-node utilization (~= load)
  double mean_link_utilization = 0.0;  ///< link nodes only; 0 without links
  std::vector<double> node_utilizations;  ///< per node (compute then links)
  std::uint64_t events_fired = 0;
  std::uint64_t locals_generated = 0;
  std::uint64_t globals_generated = 0;
  std::uint64_t globals_completed = 0;
  std::uint64_t globals_aborted = 0;
  std::uint64_t local_scheduler_aborts = 0;
  std::uint64_t resubmissions = 0;
  std::uint64_t preemptions = 0;

  // Fault/recovery diagnostics (all zero when faults are disabled).
  std::uint64_t node_crashes = 0;
  std::uint64_t transient_failures = 0;
  std::uint64_t messages_lost = 0;
  std::uint64_t fault_retries = 0;
  std::uint64_t failovers = 0;
  std::uint64_t globals_shed = 0;  ///< subset of globals_aborted

  /// Per-node perf counters (compute nodes then links), snapshotted at the
  /// horizon.  Always populated — the counters are passive O(1) increments
  /// with no event-stream or RNG footprint.
  std::vector<sched::Node::PerfCounters> node_counters;

  // Admission diagnostics (defaults / zero when the gate is off).
  bool admission_enabled = false;
  std::uint64_t globals_not_admitted = 0;  ///< drawn but rejected/shed
  core::AdmissionStats admission;
  core::OverloadState admission_final_state = core::OverloadState::kNormal;
};

/// Runs one replication with the given seed.  When @p tracer is non-null,
/// every task/global lifecycle event is recorded into it (the tracer's
/// fingerprint doubles as a determinism checksum of the whole run).
RunResult run_once(const ExperimentConfig& config, std::uint64_t seed,
                   metrics::Tracer* tracer = nullptr);

/// The seed used for replication @p rep of an experiment: widely separated,
/// deterministic offsets from the experiment's base seed.  Exposed so the
/// sweep executor can schedule (point x replication) cells itself while
/// reproducing run_experiment's seed schedule exactly.
constexpr std::uint64_t replication_seed(std::uint64_t base_seed,
                                         int rep) noexcept {
  return base_seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(rep + 1);
}

/// Runs config.replications independent replications (seeds derived from
/// config.seed via replication_seed) and aggregates per-class miss rates
/// into a Report.  Replications run on the shared work-stealing pool
/// (sized by SDA_THREADS / hardware_concurrency); results are folded in
/// replication order, so the Report is bit-identical to a sequential run.
metrics::Report run_experiment(const ExperimentConfig& config);

/// Same, on an explicit pool; when @p fingerprints is non-null it receives
/// one tracer fingerprint per replication, in replication order — the
/// determinism tests assert these are identical across pool sizes.
metrics::Report run_experiment(const ExperimentConfig& config,
                               util::ThreadPool& pool,
                               std::vector<std::uint64_t>* fingerprints = nullptr);

}  // namespace sda::exp
