#include "src/exp/runner.hpp"

#include <optional>
#include <utility>
#include <vector>

#include "src/exp/runner_detail.hpp"

#include "src/sim/engine.hpp"

namespace sda::exp {

namespace {

/// Wiring for the default shards=1, net_latency=0 run: every lane is the
/// one sim::Engine, the process manager calls the nodes synchronously,
/// and records go straight into the Collector and Tracer.
class SerialWiring final {
 public:
  explicit SerialWiring(const ExperimentConfig& config)
      : engine_(sim::make_timer_queue(config.timer_queue)) {}

  sim::Engine& engine_for_lane(int) noexcept { return engine_; }
  sim::Engine& control_engine() noexcept { return engine_; }
  int control_lane() const noexcept { return 0; }

  core::NodePort& port(std::vector<sched::Node*> nodes) {
    return port_.emplace(std::move(nodes));
  }

  void set_sinks(metrics::Collector* collector, metrics::Tracer* tracer) {
    collector_ = collector;
    tracer_ = tracer;
  }
  void emit_simple(int, const task::SimpleTask& t) {
    collector_->record_simple(t);
  }
  void emit_global(int, const core::GlobalTaskRecord& rec) {
    collector_->record_global(rec);
  }
  void emit_trace(int, const metrics::TraceRecord& rec) { tracer_->add(rec); }

  void subtask_outcome(core::ProcessManager& pm, int, const task::TaskPtr& t,
                       sched::Node::Outcome outcome) {
    pm.handle_outcome(t, outcome);
  }

  /// Local sources record PM-timer aborts into the collector directly.
  void hook_local_source(workload::LocalSource&, int) {}
  /// The process manager asks the live nodes whether they are up.
  void plan_outages(const fault::FaultPlan&, int) {}

  void run(sim::Time horizon) { engine_.run_until(horizon); }
  std::uint64_t events_fired() const noexcept { return engine_.events_fired(); }
  std::optional<RunResult::FabricStats> fabric_stats() const noexcept {
    return std::nullopt;
  }

 private:
  sim::Engine engine_;
  std::optional<core::DirectNodePort> port_;
  metrics::Collector* collector_ = nullptr;
  metrics::Tracer* tracer_ = nullptr;
};

}  // namespace

RunResult run_once(const ExperimentConfig& config, std::uint64_t seed,
                   metrics::Tracer* tracer) {
  // Reject inconsistent configs with actionable errors before any part of
  // the system is assembled (callers going through run_experiment have
  // already paid this, but run_once is a public entry point of its own).
  config.validate_or_throw();

  // Sharded (or latency-modeling) runs go through the time-window fabric;
  // the default shards=1, net_latency=0 builds the same system on one
  // engine with no fabric at all.
  if (detail::message_mode(config)) {
    return detail::run_once_sharded(config, seed, tracer);
  }
  SerialWiring wiring(config);
  return detail::run_system(config, seed, tracer, wiring);
}

metrics::Report run_experiment(const ExperimentConfig& config) {
  return run_experiment(config, util::ThreadPool::shared(), nullptr);
}

metrics::Report run_experiment(const ExperimentConfig& config,
                               util::ThreadPool& pool,
                               std::vector<std::uint64_t>* fingerprints) {
  config.validate_or_throw();
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
