// Simulation workloads: whole replications through exp::run_once, timed
// from outside; per-layer numbers from the decorators in layers.cpp and
// from RunResult's own counters.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "src/exp/runner.hpp"
#include "src/layers.hpp"
#include "src/metrics/task_class.hpp"
#include "src/metrics/trace.hpp"
#include "src/workloads.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct Replication {
  sda::exp::RunResult result;
  std::uint64_t fingerprint = 0;
  double wall_s = 0.0;
};

Replication replicate(const sda::exp::ExperimentConfig& c,
                      std::uint64_t seed) {
  sda::metrics::Tracer tracer(1);  // fingerprint only, no record buffer
  const Clock::time_point t0 = Clock::now();
  Replication r{sda::exp::run_once(c, seed, &tracer), 0, 0.0};
  r.wall_s = since(t0);
  r.fingerprint = tracer.fingerprint();
  return r;
}

double miss_pct(const sda::metrics::Collector& col, bool global) {
  double finished = 0.0;
  double missed = 0.0;
  for (const int cls : col.classes()) {
    const bool is_global = sda::metrics::is_global_class(cls);
    if (is_global != global || (!global && cls != sda::metrics::kLocalClass)) {
      continue;
    }
    const sda::metrics::ClassCounts cc = col.counts(cls);
    finished += static_cast<double>(cc.finished);
    missed += static_cast<double>(cc.missed);
  }
  return pct(missed, finished);
}

bool uses_fabric(const sda::exp::ExperimentConfig& c) {
  return c.shards > 1 || c.net_latency > 0.0;
}

}  // namespace

sda::exp::ExperimentConfig paper_config() {
  sda::exp::ExperimentConfig c = sda::exp::baseline_config();
  for (const auto& [k, v] : std::vector<std::pair<std::string, std::string>>{
           {"global_kind", "graph"}, {"stage_widths", "1,4,1,4,1"},
           {"psp", "gf"}, {"ssp", "eqf"}, {"k", "6"}, {"load", "0.8"},
           {"frac_local", "0.5"}, {"shards", "1"}, {"net_latency", "0"}}) {
    c.set(k, v);
  }
  c.sim_time = kPaperSimTime;
  c.replications = 1;
  return c;
}

sda::exp::ExperimentConfig scale_config() {
  sda::exp::ExperimentConfig c = sda::exp::baseline_config();
  for (const auto& [k, v] : std::vector<std::pair<std::string, std::string>>{
           {"k", "4096"}, {"n_min", "8"}, {"n_max", "8"},
           {"frac_local", "0.95"}, {"net_latency", "0.5"}, {"load", "0.9"},
           {"psp", "div-1"}, {"ssp", "eqf"}, {"shards", "2"}}) {
    c.set(k, v);
  }
  c.sim_time = kScaleSimTime;
  c.replications = 1;
  return c;
}

namespace {

// Whole replications of one config with the workload seed.  Every step
// runs one untraced replication; a traced run alternates untraced and
// decorated replications, so both see the same stretch of host time.
class SimPhase final : public Phase {
 public:
  SimPhase(std::string workload, const sda::exp::ExperimentConfig& c,
           const RunSpec& spec, bool home, Report& report)
      : workload_(std::move(workload)),
        config_(c),
        spec_(spec),
        home_(home) {
    // Set-up: building the system up to its first event, measured as
    // whole replications over a horizon too short for any event to fire,
    // a few before every replication so that the samples span the run.
    empty_ = c;
    empty_.sim_time = 1e-6;
    // sim-scale's sharded fingerprint must equal the serial engine's for
    // the same model; computed once, outside the timed region.
    if (c.shards > 1) {
      sda::exp::ExperimentConfig serial = c;
      serial.shards = 1;
      serial_fp_ = replicate(serial, spec.seed).fingerprint;
      report.attempt(1);
    }
    if (spec.trace) {
      const TracedNames names =
          register_decorators(c.timer_queue, c.psp, c.ssp);
      traced_ = c;
      traced_.timer_queue = names.timer_queue;
      traced_.psp = names.psp;
      traced_.ssp = names.ssp;
    }
  }

  int min_steps() const override { return spec_.trace ? 2 : 3; }

  void step(Report& report) override {
    report.attempt(1);
    const bool traced = spec_.trace && have_first_ && !walls_.empty() &&
                        traced_walls_.size() < walls_.size();
    if (!traced) {
      for (int i = 0; home_ && !spec_.trace && i < kSetupsPerStep; ++i) {
        setup_.push_back(replicate(empty_, spec_.seed).wall_s);
      }
      Replication r = replicate(config_, spec_.seed);
      walls_.push_back(r.wall_s);
      if (!have_first_) {
        first_ = std::move(r);
        have_first_ = true;
        return;
      }
      report.check(r.fingerprint == first_.fingerprint,
                   workload_ + " repeat " + std::to_string(walls_.size()) +
                       " reproduces fingerprint " + hex(first_.fingerprint));
      return;
    }
    reset_layer_counters();
    const Replication r = replicate(traced_, spec_.seed);
    traced_walls_.push_back(r.wall_s);
    report.check(r.fingerprint == first_.fingerprint,
                 workload_ + " traced fingerprint " + hex(r.fingerprint) +
                     " equals untraced " + hex(first_.fingerprint));
    queues_ = queue_counters();
    psp_ = psp_assigns();
    ssp_ = ssp_assigns();
  }

  void finish(Report& report) override {
    const sda::exp::RunResult& rr = first_.result;
    report.note(workload_ + " fingerprint " + hex(first_.fingerprint) +
                " (" + std::to_string(rr.events_fired) +
                " events per replication)");
    if (config_.shards > 1) {
      report.note(workload_ + " shards=1 fingerprint " + hex(serial_fp_));
      report.check(serial_fp_ == first_.fingerprint,
                   workload_ + " shards=" + std::to_string(config_.shards) +
                       " fingerprint equals shards=1");
    }
    report.check(rr.events_fired > 0, workload_ + " fired events");
    if (!spec_.trace) {
      if (home_) {
        const Summary s = summarize(setup_);
        report.log_timing("setup (build to first event)", "s", s);
        report.add("setup_s", s.median, "s", s.n);
      }
      std::vector<double> rates;
      for (const double w : walls_) {
        rates.push_back(static_cast<double>(rr.events_fired) / w);
      }
      const Summary rate = summarize(rates);
      report.log_timing(workload_ + " replication rate", "events/s", rate);
      report.add("sim_events_per_s", rate.median, "events/s", rate.n,
                 "median over replications");
      report.add("global_miss_pct", miss_pct(rr.collector, true), "%", 1,
                 "simulated, exact per seed");
      report.add("local_miss_pct", miss_pct(rr.collector, false), "%", 1,
                 "simulated, exact per seed");
      return;
    }
    add_layers(report);
  }

 private:
  void add_layers(Report& report) {
    const sda::exp::RunResult& rr = first_.result;
    // Engines whose queue never fired an event (run_once may build one it
    // does not drive) would skew the per-shard figures.
    std::erase_if(queues_, [](const QueueCounters& q) { return q.pops == 0; });
    QueueCounters sum;
    double outside = 0.0;
    double max_pops = 0.0;
    for (const QueueCounters& q : queues_) {
      sum.pushes += q.pushes;
      sum.pops += q.pops;
      sum.cancels += q.cancels;
      sum.pending_max = std::max(sum.pending_max, q.pending_max);
      sum.self_s += q.self_s;
      sum.handler_s += q.handler_s;
      outside += q.run_span_s - q.run_self_s - q.handler_s;
      max_pops = std::max(max_pops, static_cast<double>(q.pops));
    }
    report.note(workload_ + ": " + std::to_string(queues_.size()) +
                " decorated timer queue(s) fired events");
    const double n_queues = static_cast<double>(queues_.size());
    const bool fabric = uses_fabric(config_);
    report.add("sim.timer_queue.pushes", static_cast<double>(sum.pushes), "count", 1);
    report.add("sim.timer_queue.pops", static_cast<double>(sum.pops), "count", 1);
    report.add("sim.timer_queue.cancels", static_cast<double>(sum.cancels), "count", 1);
    report.add("sim.timer_queue.pending_max", static_cast<double>(sum.pending_max),
               "count", 1);
    report.add("sim.timer_queue.self_s", sum.self_s, "s", 1);
    report.add("sim.handler_s", sum.handler_s, "s", 1);
    report.add("core.psp.assigns", static_cast<double>(psp_), "count", 1);
    report.add("core.ssp.assigns", static_cast<double>(ssp_), "count", 1);
    report.add("sim.fabric.outside_s", fabric ? outside / n_queues : 0.0, "s",
               queues_.size(), "mean per shard");
    report.add("sim.fabric.pop_imbalance",
               fabric ? ratio(max_pops, static_cast<double>(sum.pops) / n_queues)
                      : 0.0,
               "ratio", queues_.size(), "max shard pops / mean");

    std::size_t high_water = 0;
    double depth_mean = 0.0;
    for (const auto& nc : rr.node_counters) {
      high_water = std::max(high_water, nc.queue_high_water);
      depth_mean += nc.queue_depth_mean;
    }
    depth_mean = ratio(depth_mean, static_cast<double>(rr.node_counters.size()));
    report.add("sched.utilization", rr.mean_utilization, "ratio", 1);
    report.add("sched.queue_high_water", static_cast<double>(high_water), "count", 1);
    report.add("sched.queue_depth_mean", depth_mean, "count", 1);
    report.add("sched.local_aborts", static_cast<double>(rr.local_scheduler_aborts),
               "count", 1);
    report.add("sched.preemptions", static_cast<double>(rr.preemptions), "count", 1);
    report.add("core.pm.globals_generated", static_cast<double>(rr.globals_generated),
               "count", 1);
    report.add("core.pm.globals_completed", static_cast<double>(rr.globals_completed),
               "count", 1);
    report.add("core.pm.globals_aborted", static_cast<double>(rr.globals_aborted),
               "count", 1);
    report.add("core.pm.resubmissions", static_cast<double>(rr.resubmissions),
               "count", 1);
    report.add("workload.locals_generated", static_cast<double>(rr.locals_generated),
               "count", 1);

    const double untraced = median(walls_);
    const double traced = median(traced_walls_);
    report.note(workload_ + " wall per replication: untraced " +
                json_number(untraced) + " s (n=" + std::to_string(walls_.size()) +
                "), traced " + json_number(traced) + " s (n=" +
                std::to_string(traced_walls_.size()) + ")");
    if (home_) {
      report.add("bench.trace_overhead_pct", pct(traced - untraced, untraced),
                 "%", traced_walls_.size());
    }
  }

  std::string workload_;
  sda::exp::ExperimentConfig config_;
  sda::exp::ExperimentConfig traced_;
  sda::exp::ExperimentConfig empty_;  ///< the set-up probe
  std::vector<double> setup_;
  RunSpec spec_;
  bool home_;
  std::uint64_t serial_fp_ = 0;
  bool have_first_ = false;
  Replication first_;  ///< the first untraced replication, kept whole
  std::vector<double> walls_;
  std::vector<double> traced_walls_;
  std::vector<QueueCounters> queues_;  ///< from the latest traced replication
  std::uint64_t psp_ = 0;
  std::uint64_t ssp_ = 0;
};

}  // namespace

std::unique_ptr<Phase> make_sim_phase(const std::string& workload,
                                      const sda::exp::ExperimentConfig& c,
                                      const RunSpec& spec, bool home,
                                      Report& report) {
  return std::make_unique<SimPhase>(workload, c, spec, home, report);
}

}  // namespace perfbench
