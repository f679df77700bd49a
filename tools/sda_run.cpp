// sda_run — the unified experiment front door.
//
//   sda_run psp=gf ssp=eqf load=0.9 reps=4 --json out.jsonl --trace run.trace.json
//
// Takes the Table-1 baseline config, applies key=value overrides through
// the ExperimentConfig kv API (every public field is a key; --list-keys
// prints them), validates, runs the replications, and prints a per-class
// summary table.  Optional exporters:
//
//   --json <path|->   JSON lines: one "sda.run.v1" record per replication
//                     followed by one "sda.report.v1" aggregate record
//                     (schema documented in EXPERIMENTS.md).
//   --trace <path>    Chrome trace_event JSON of replication 0 — open it
//                     in https://ui.perfetto.dev (one track per node).
//
// A third mode turns the batch tool into a long-running admission
// service (EXPERIMENTS.md "Serve mode"):
//
//   sda_run --serve [--input <path>] [--listen <addr>] [--timing]
//           [--journal <path>] [key=value ...]
//
// reads newline-delimited `sub`/`done` lines from stdin (or a file/FIFO
// via --input, or TCP/unix clients via --listen), gates them through
// the feasibility-based admission controller configured by the
// admission_* keys, and emits one `sda.admit.v1` JSON-lines decision
// per submission.  With --journal the accepted lines are written ahead
// to an sda.journal.v1 file and replayed on restart (crash recovery);
// --recover-check replays a journal read-only and reports the
// reconstructed state fingerprint (sda.recover.v1).  A --listen server
// drains gracefully on SIGTERM/SIGINT: stops accepting, finishes
// buffered requests, checkpoints the journal, and prints the summary.
//
// Replications run sequentially through exp::run_once with the exact seed
// schedule of exp::run_experiment (replication_seed), so the determinism
// fingerprints printed here are byte-identical to the library path — with
// or without exporters attached, since exporting is strictly post-hoc.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/core/strategy.hpp"
#include "src/exp/config.hpp"
#include "src/exp/json_export.hpp"
#include "src/exp/net.hpp"
#include "src/exp/runner.hpp"
#include "src/exp/serve.hpp"
#include "src/metrics/json_writer.hpp"
#include "src/metrics/percentile.hpp"
#include "src/metrics/report.hpp"
#include "src/metrics/task_class.hpp"
#include "src/metrics/trace_export.hpp"
#include "src/util/env.hpp"
#include "src/util/table.hpp"

namespace {

using namespace sda;

int usage(const char* argv0, int code) {
  std::fprintf(
      stderr,
      "usage: %s [key=value ...] [options]\n"
      "\n"
      "Runs one experiment (Table-1 baseline unless overridden) and prints\n"
      "per-class miss rates with 95%% CIs.\n"
      "\n"
      "  key=value          override a config field, e.g. psp=gf load=0.9\n"
      "                     (reps is shorthand for replications)\n"
      "  --json <path|->    write JSON-lines results (sda.run.v1 per\n"
      "                     replication + sda.report.v1 aggregate)\n"
      "  --trace <path>     write a Chrome/Perfetto trace of replication 0\n"
      "  --serve            admission-service mode: read sub/done lines\n"
      "                     from stdin, write sda.admit.v1 decisions\n"
      "  --input <path>     serve mode: read from a file or FIFO instead\n"
      "  --listen <addr>    serve mode: accept clients on host:port (port 0\n"
      "                     = ephemeral, reported in an sda.listen.v1 line)\n"
      "                     or unix:/path; SIGTERM drains gracefully\n"
      "  --journal <path>   serve mode: write-ahead sda.journal.v1 log of\n"
      "                     accepted lines; replayed on restart (recovery)\n"
      "  --journal-flush-every <n>  cap on records per fsync (default %zu;\n"
      "                     replies wait for the fsync of their record)\n"
      "  --recover-check <path>     replay a journal read-only and print\n"
      "                     the reconstructed state (sda.recover.v1)\n"
      "  --retry-hints      serve mode: attach retry_after to shed and\n"
      "                     backpressure decisions\n"
      "  --timing           serve mode: measure per-decision latency and\n"
      "                     report P50/P90/P99 + admissions/sec (the\n"
      "                     summary bytes become nondeterministic)\n"
      "  --list-keys        print every config key with its current value\n"
      "  --list-strategies  print registered PSP and SSP strategies\n"
      "  --validate-only    check the config and exit (0 = valid)\n"
      "  -h, --help         this text\n",
      argv0, exp::ServeOptions{}.journal_flush_every);
  return code;
}

void print_summary(const exp::ExperimentConfig& config,
                   const metrics::Report& report,
                   const std::vector<std::uint64_t>& fingerprints,
                   const std::vector<exp::RunResult>& results,
                   const metrics::Collector* merged) {
  std::printf("%s\n", config.describe().c_str());
  std::printf("replications: %zu  sim_time: %g  seed: %llu\n\n",
              report.replications(), config.sim_time,
              static_cast<unsigned long long>(config.seed));

  util::Table table({"class", "finished", "MD", "missed work"});
  for (const int cls : report.classes()) {
    const metrics::ClassSummary s = report.summary(cls);
    table.add_row({metrics::default_class_name(cls),
                   std::to_string(s.finished_total),
                   util::fmt_pct_ci(s.miss_rate.mean, s.miss_rate.half_width),
                   util::fmt_pct_ci(s.missed_work_rate.mean,
                                    s.missed_work_rate.half_width)});
  }
  std::printf("%s\n", table.render().c_str());

  const auto mw = report.overall_missed_work();
  std::printf("overall missed work: %s\n",
              util::fmt_pct_ci(mw.mean, mw.half_width).c_str());

  if (!results.empty()) {
    double busy = 0.0, total = 0.0;
    std::size_t high_water = 0;
    for (const auto& pc : results.front().node_counters) {
      busy += pc.busy_time;
      total += pc.busy_time + pc.idle_time;
      if (pc.queue_high_water > high_water) high_water = pc.queue_high_water;
    }
    std::printf("rep 0: utilization %.3f, queue high-water %zu, "
                "%llu events\n",
                total > 0.0 ? busy / total : 0.0, high_water,
                static_cast<unsigned long long>(results.front().events_fired));
    if (results.front().admission_enabled) {
      const core::AdmissionStats& a = results.front().admission;
      std::printf(
          "rep 0 admission: %llu admitted (+%llu degraded), %llu rejected, "
          "%llu shed, final state %s\n",
          static_cast<unsigned long long>(a.admitted),
          static_cast<unsigned long long>(a.admitted_degraded),
          static_cast<unsigned long long>(a.rejected),
          static_cast<unsigned long long>(a.shed),
          core::to_string(results.front().admission_final_state));
    }
  }

  if (merged != nullptr) {
    std::printf("\ntardiness quantiles (all replications merged):\n");
    util::Table dist({"class", "count", "p50", "p90", "p99", "p99.9"});
    for (const int cls : merged->distribution_classes()) {
      const metrics::DistributionSet* d = merged->class_distributions(cls);
      if (d == nullptr) continue;
      const metrics::Quantiles q = metrics::summarize(d->tardiness);
      dist.add_row({metrics::default_class_name(cls), std::to_string(q.count),
                    util::fmt(q.p50, 3), util::fmt(q.p90, 3),
                    util::fmt(q.p99, 3), util::fmt(q.p999, 3)});
    }
    std::printf("%s\n", dist.render().c_str());
  }

  std::printf("\nfingerprints:");
  for (const std::uint64_t fp : fingerprints) {
    std::printf(" %016llx", static_cast<unsigned long long>(fp));
  }
  std::printf("\n");
}

// The running --listen server, for the signal handlers.  request_stop
// is async-signal-safe (one write to the self-pipe).
exp::net::ServeServer* g_server = nullptr;

extern "C" void handle_drain_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

/// --recover-check: replay @p path read-only and print what the journal
/// reconstructs.  Exit code 0 when the journal was readable.
int recover_check(const std::string& path, exp::ServeOptions opts) {
  const exp::JournalReadResult raw = exp::read_journal(path);
  opts.journal_path = path;
  opts.journal_replay_only = true;
  exp::ServeSession session(opts);
  std::string diag;
  if (!session.open_journal(&diag)) {
    std::fprintf(stderr, "%s\n", diag.c_str());
    return 66;
  }
  char fp_hex[17];
  std::snprintf(fp_hex, sizeof fp_hex, "%016llx",
                static_cast<unsigned long long>(session.state_fingerprint()));
  std::string line;
  metrics::JsonWriter w(line);
  w.begin_object()
      .kv("schema", "sda.recover.v1")
      .kv("journal", path)
      .kv("ok", raw.ok)
      .kv("replayed", session.result().replayed)
      .kv("truncated", session.replay_truncated());
  if (!session.replay_diagnostic().empty()) {
    w.kv("diagnostic", session.replay_diagnostic());
  } else if (!raw.ok) {
    w.kv("diagnostic", raw.diagnostic);
  }
  w.kv("fingerprint", fp_hex)
      .kv("state", core::to_string(session.controller().state()))
      .kv("pressure", session.controller().pressure())
      .kv("queue_depth",
          static_cast<std::uint64_t>(session.controller().queue_depth()))
      .kv("ledger",
          static_cast<std::uint64_t>(session.controller().ledger_size()))
      .end_object();
  std::cout << line << "\n";
  return raw.ok ? 0 : 66;
}

/// --listen: run the socket front door until a drain signal arrives.
int serve_listen(const std::string& listen_arg, const exp::ServeOptions& opts) {
  exp::net::ServerOptions server_opts;
  std::string error;
  if (!exp::net::parse_listen_spec(listen_arg, &server_opts.listen, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 64;
  }
  server_opts.max_line_bytes = opts.limits.max_line_bytes;
  exp::ServeSession session(opts);
  if (!session.open_journal(&error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 66;
  }
  exp::net::ServeServer server(session, server_opts);
  if (!server.start(&error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 66;
  }
  g_server = &server;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = handle_drain_signal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  // Dead clients surface as EPIPE on write, not a fatal signal.
  signal(SIGPIPE, SIG_IGN);

  std::cout << server.banner() << "\n";
  std::cout.flush();
  const int rc = server.run(std::cout);
  g_server = nullptr;
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  util::warn_unknown_sda_env();
  exp::ExperimentConfig config = exp::baseline_config();

  std::string json_path;
  std::string trace_path;
  std::string input_path;
  std::string listen_arg;
  std::string journal_path;
  std::string recover_path;
  std::size_t journal_flush_every = exp::ServeOptions{}.journal_flush_every;
  bool retry_hints = false;
  bool list_keys = false;
  bool list_strategies = false;
  bool validate_only = false;
  bool serve = false;
  bool timing = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto flag_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs an argument\n", flag);
        std::exit(64);
      }
      return argv[++i];
    };
    if (arg == "-h" || arg == "--help") {
      return usage(argv[0], 0);
    } else if (arg == "--json") {
      json_path = flag_value("--json");
    } else if (arg == "--trace") {
      trace_path = flag_value("--trace");
    } else if (arg == "--serve") {
      serve = true;
    } else if (arg == "--input") {
      input_path = flag_value("--input");
    } else if (arg == "--listen") {
      listen_arg = flag_value("--listen");
      serve = true;  // --listen implies serve mode
    } else if (arg == "--journal") {
      journal_path = flag_value("--journal");
    } else if (arg == "--journal-flush-every") {
      journal_flush_every =
          static_cast<std::size_t>(std::strtoull(
              flag_value("--journal-flush-every"), nullptr, 10));
      if (journal_flush_every == 0) journal_flush_every = 1;
    } else if (arg == "--recover-check") {
      recover_path = flag_value("--recover-check");
    } else if (arg == "--retry-hints") {
      retry_hints = true;
    } else if (arg == "--timing") {
      timing = true;
    } else if (arg == "--list-keys") {
      list_keys = true;
    } else if (arg == "--list-strategies") {
      list_strategies = true;
    } else if (arg == "--validate-only") {
      validate_only = true;
    } else {
      const std::size_t eq = arg.find('=');
      if (eq == std::string::npos || eq == 0) return usage(argv[0], 64);
      std::string key = arg.substr(0, eq);
      if (key == "reps") key = "replications";  // the CLI's one shorthand
      try {
        config.set(key, arg.substr(eq + 1));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 64;
      }
    }
  }

  if (list_keys) {
    for (const auto& [key, value] : config.to_kv()) {
      std::printf("%-24s %s\n", key.c_str(), value.c_str());
    }
    return 0;
  }
  if (list_strategies) {
    std::printf("PSP:");
    for (const auto& n : core::list_psp_strategies()) std::printf(" %s", n.c_str());
    std::printf("\nSSP:");
    for (const auto& n : core::list_ssp_strategies()) std::printf(" %s", n.c_str());
    std::printf("\n");
    return 0;
  }

  const auto invalid = [](const std::vector<std::string>& problems) {
    if (problems.empty()) return false;
    std::fprintf(stderr, "invalid config:\n");
    for (const std::string& p : problems) {
      std::fprintf(stderr, "  - %s\n", p.c_str());
    }
    return true;
  };
  if (invalid(config.validate())) return 64;
  // Serving and recovery build an admission controller even when the
  // simulator's admission=0.
  const bool builds_controller = serve || !recover_path.empty();
  if (builds_controller && invalid(config.validate_admission())) return 64;
  if (validate_only) {
    std::printf("config valid\n");
    return 0;
  }

  if (builds_controller) {
    exp::ServeOptions opts;
    opts.admission = config.admission_config();
    opts.measure_latency = timing;
    opts.journal_path = journal_path;
    opts.journal_flush_every = journal_flush_every;
    opts.retry_hints = retry_hints;
    if (!recover_path.empty()) return recover_check(recover_path, opts);
    if (!listen_arg.empty()) return serve_listen(listen_arg, opts);
    std::ifstream input_file;
    std::istream* in = &std::cin;
    if (input_path.empty()) {
      // Unsynced stdin is buffered, so serve_stream can see whether more
      // input is already waiting and group-commit it (stdout is only
      // written through std::cout from here on).
      std::ios::sync_with_stdio(false);
    } else {
      input_file.open(input_path);
      if (!input_file) {
        std::fprintf(stderr, "cannot open %s\n", input_path.c_str());
        return 66;
      }
      in = &input_file;
    }
    const exp::ServeResult r = exp::serve_stream(*in, std::cout, opts);
    if (r.journal_failed) return 74;
    return r.errors == 0 ? 0 : 65;
  }

  std::ofstream json_file;
  std::ostream* json_os = nullptr;
  if (!json_path.empty()) {
    if (json_path == "-") {
      json_os = &std::cout;
    } else {
      json_file.open(json_path);
      if (!json_file) {
        std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
        return 66;
      }
      json_os = &json_file;
    }
  }

  // Sequential replications with run_experiment's exact seed schedule:
  // fingerprints match the library path byte for byte.
  std::vector<exp::RunResult> results;
  std::vector<std::uint64_t> fingerprints;
  metrics::Report report;
  std::unique_ptr<metrics::Collector> merged;
  metrics::Tracer rep0_trace;  // unbounded: --trace needs the records
  try {
    for (int rep = 0; rep < config.replications; ++rep) {
      const std::uint64_t seed = exp::replication_seed(config.seed, rep);
      // Capacity 1 keeps memory flat when the records are not needed; the
      // fingerprint covers evicted events either way.
      metrics::Tracer small(1);
      metrics::Tracer* tracer =
          (rep == 0 && !trace_path.empty()) ? &rep0_trace : &small;
      results.push_back(exp::run_once(config, seed, tracer));
      fingerprints.push_back(tracer->fingerprint());
      report.add_replication(results.back().collector);
      if (json_os != nullptr) {
        exp::write_run_json_line(config, rep, seed, fingerprints.back(),
                                 results.back(), *json_os);
      }
      if (config.distributions) {
        if (merged == nullptr) {
          merged = std::make_unique<metrics::Collector>();
          merged->enable_distributions();
        }
        merged->merge_distributions(results.back().collector);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run failed: %s\n", e.what());
    return 70;
  }

  if (json_os != nullptr) {
    exp::write_report_json_line(config, report, fingerprints, merged.get(),
                                *json_os);
  }
  if (!trace_path.empty()) {
    try {
      metrics::write_chrome_trace_file(rep0_trace, config.k + config.link_count,
                                       trace_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 66;
    }
  }

  print_summary(config, report, fingerprints, results, merged.get());
  return 0;
}
