#include "src/exp/json_export.hpp"

#include <charconv>
#include <string>

#include "src/metrics/json_writer.hpp"
#include "src/metrics/percentile.hpp"
#include "src/metrics/task_class.hpp"

namespace sda::exp {

namespace {

using metrics::JsonWriter;

/// uint64 as "0x..." so JavaScript readers (Perfetto UI, jq) never round
/// it through a double.
std::string hex64(std::uint64_t v) {
  char buf[19] = "0x";
  const auto res = std::to_chars(buf + 2, buf + sizeof buf, v, 16);
  return std::string(buf, res.ptr - buf);
}

void quantiles_object(JsonWriter& w, const metrics::LogHistogram& h) {
  const metrics::Quantiles q = metrics::summarize(h);
  w.begin_object();
  w.kv("count", q.count);
  w.kv("mean", q.mean);
  w.kv("p50", q.p50);
  w.kv("p90", q.p90);
  w.kv("p99", q.p99);
  w.kv("p999", q.p999);
  w.end_object();
}

void distribution_set_object(JsonWriter& w, const metrics::DistributionSet& d) {
  w.begin_object();
  w.key("response");
  quantiles_object(w, d.response);
  w.key("tardiness");
  quantiles_object(w, d.tardiness);
  w.end_object();
}

/// The "distributions" member: {"classes": {"<cls>": {...}}, "nodes":
/// {"<node>": {...}}}.  Shared by run and report lines.
void distributions_member(JsonWriter& w, const metrics::Collector& c) {
  w.key("distributions").begin_object();
  w.key("classes").begin_object();
  for (const int cls : c.distribution_classes()) {
    if (const metrics::DistributionSet* d = c.class_distributions(cls)) {
      w.key(std::to_string(cls));
      distribution_set_object(w, *d);
    }
  }
  w.end_object();
  w.key("nodes").begin_object();
  for (const int node : c.distribution_nodes()) {
    if (const metrics::DistributionSet* d = c.node_distributions(node)) {
      w.key(std::to_string(node));
      distribution_set_object(w, *d);
    }
  }
  w.end_object();
  w.end_object();
}

void interval_object(JsonWriter& w, const util::ConfidenceInterval& ci) {
  w.begin_object();
  w.kv("mean", ci.mean);
  w.kv("half_width", ci.half_width);
  w.kv("n", static_cast<std::uint64_t>(ci.n));
  w.end_object();
}

void config_member(JsonWriter& w, const ExperimentConfig& config) {
  w.key("config").begin_object();
  for (const auto& [key, value] : config.to_kv()) w.kv(key, value);
  w.end_object();
}

}  // namespace

void write_run_json_line(const ExperimentConfig& config, int rep,
                         std::uint64_t seed, std::uint64_t fingerprint,
                         const RunResult& result, std::ostream& os) {
  std::string line;
  JsonWriter w(line);
  w.begin_object();
  w.kv("schema", "sda.run.v1");
  w.kv("rep", rep);
  w.kv("seed", hex64(seed));
  w.kv("fingerprint", hex64(fingerprint));
  w.kv("sim_time", config.sim_time);

  w.key("diag").begin_object();
  w.kv("events_fired", result.events_fired);
  w.kv("mean_utilization", result.mean_utilization);
  w.kv("mean_link_utilization", result.mean_link_utilization);
  w.kv("locals_generated", result.locals_generated);
  w.kv("globals_generated", result.globals_generated);
  w.kv("globals_completed", result.globals_completed);
  w.kv("globals_aborted", result.globals_aborted);
  w.kv("globals_shed", result.globals_shed);
  w.kv("local_scheduler_aborts", result.local_scheduler_aborts);
  w.kv("resubmissions", result.resubmissions);
  w.kv("preemptions", result.preemptions);
  w.kv("node_crashes", result.node_crashes);
  w.kv("transient_failures", result.transient_failures);
  w.kv("messages_lost", result.messages_lost);
  w.kv("fault_retries", result.fault_retries);
  w.kv("failovers", result.failovers);
  w.end_object();

  if (result.admission_enabled) {
    w.key("admission").begin_object();
    w.kv("submitted", result.admission.submitted);
    w.kv("admitted", result.admission.admitted);
    w.kv("admitted_degraded", result.admission.admitted_degraded);
    w.kv("rejected", result.admission.rejected);
    w.kv("shed", result.admission.shed);
    w.kv("not_admitted", result.globals_not_admitted);
    w.kv("final_state", core::to_string(result.admission_final_state));
    w.key("transitions").begin_object();
    w.kv("to_degraded", result.admission.to_degraded);
    w.kv("to_shedding", result.admission.to_shedding);
    w.kv("to_normal", result.admission.to_normal);
    w.end_object();
    w.end_object();
  }

  w.key("classes").begin_array();
  for (const int cls : result.collector.classes()) {
    const metrics::ClassCounts counts = result.collector.counts(cls);
    const metrics::ClassTimings timings = result.collector.timings(cls);
    w.begin_object();
    w.kv("cls", cls);
    w.kv("name", metrics::default_class_name(cls));
    w.kv("finished", counts.finished);
    w.kv("missed", counts.missed);
    w.kv("aborted", counts.aborted);
    w.kv("miss_rate", counts.miss_rate());
    w.kv("work_total", counts.work_total);
    w.kv("work_missed", counts.work_missed);
    w.kv("mean_response", timings.response.mean());
    w.kv("mean_tardiness", timings.tardiness.mean());
    w.end_object();
  }
  w.end_array();

  w.key("nodes").begin_array();
  for (const sched::Node::PerfCounters& pc : result.node_counters) {
    w.begin_object();
    w.kv("node", pc.node);
    w.kv("busy_time", pc.busy_time);
    w.kv("idle_time", pc.idle_time);
    w.kv("utilization", pc.utilization);
    w.kv("submissions", pc.submissions);
    w.kv("completed", pc.completed);
    w.kv("aborted_locally", pc.aborted_locally);
    w.kv("aborted_externally", pc.aborted_externally);
    w.kv("preemptions", pc.preemptions);
    w.kv("failed", pc.failed);
    w.kv("crashes", pc.crashes);
    w.kv("queue_high_water", static_cast<std::uint64_t>(pc.queue_high_water));
    w.kv("abort_timers_armed", pc.abort_timers_armed);
    w.kv("abort_timers_cancelled", pc.abort_timers_cancelled);
    w.kv("queue_depth_samples", pc.queue_depth_samples);
    w.kv("queue_depth_mean", pc.queue_depth_mean);
    w.end_object();
  }
  w.end_array();

  if (result.collector.distributions_enabled()) {
    distributions_member(w, result.collector);
  }

  w.end_object();
  line += '\n';
  os << line;
}

void write_report_json_line(
    const ExperimentConfig& config, const metrics::Report& report,
    const std::vector<std::uint64_t>& fingerprints,
    const metrics::Collector* merged_distributions, std::ostream& os) {
  std::string line;
  JsonWriter w(line);
  w.begin_object();
  w.kv("schema", "sda.report.v1");
  w.kv("replications", static_cast<std::uint64_t>(report.replications()));
  config_member(w, config);

  w.key("classes").begin_array();
  for (const int cls : report.classes()) {
    const metrics::ClassSummary s = report.summary(cls);
    w.begin_object();
    w.kv("cls", cls);
    w.kv("name", metrics::default_class_name(cls));
    w.key("miss_rate");
    interval_object(w, s.miss_rate);
    w.key("missed_work_rate");
    interval_object(w, s.missed_work_rate);
    w.kv("finished_total", s.finished_total);
    w.end_object();
  }
  w.end_array();

  w.key("overall_missed_work");
  interval_object(w, report.overall_missed_work());
  w.kv("global_retries", report.global_retries_total());
  w.kv("shed_runs", report.shed_runs_total());

  w.key("fingerprints").begin_array();
  for (const std::uint64_t fp : fingerprints) w.value(hex64(fp));
  w.end_array();

  if (merged_distributions != nullptr &&
      merged_distributions->distributions_enabled()) {
    distributions_member(w, *merged_distributions);
  }

  w.end_object();
  line += '\n';
  os << line;
}

}  // namespace sda::exp
