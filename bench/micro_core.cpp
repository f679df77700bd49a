// Microbenchmarks (google-benchmark) for the simulation substrate: event
// queue, engine dispatch, EDF queue operations, strategy evaluation, the
// recursive SDA walk, and a whole-system replication.  These bound the cost
// of regenerating the paper's figures and catch substrate regressions.
#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <thread>
#include <vector>

#include "src/core/admission.hpp"
#include "src/exp/net.hpp"
#include "src/core/process_manager.hpp"
#include "src/exp/serve.hpp"
#include "src/metrics/percentile.hpp"
#include "src/core/sda.hpp"
#include "src/core/strategy.hpp"
#include "src/exp/config.hpp"
#include "src/exp/runner.hpp"
#include "src/sched/node.hpp"
#include "src/sim/engine.hpp"
#include "src/task/notation.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace sda;

void BM_EventQueuePushPop(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  util::Rng rng(1);
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < batch; ++i) {
      q.push(rng.uniform01(), [] {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(64)->Arg(1024)->Arg(16384);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  // Abort-timer pattern: every event gets a guard pushed alongside it, and
  // half the guards are cancelled before draining.  Exercises the O(log n)
  // indexed cancel path and eager callable release.
  const int batch = static_cast<int>(state.range(0));
  util::Rng rng(3);
  std::vector<sim::EventId> ids(static_cast<std::size_t>(batch));
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < batch; ++i) {
      ids[static_cast<std::size_t>(i)] = q.push(rng.uniform01(), [] {});
    }
    for (int i = 0; i < batch; i += 2) {
      benchmark::DoNotOptimize(q.cancel(ids[static_cast<std::size_t>(i)]));
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueCancelHeavy)->Arg(1024)->Arg(16384);

namespace {
/// Self-rescheduling tick event: copies itself into the next event slot,
/// so the chain needs no heap-allocating callable wrapper.
struct Tick {
  sim::Engine& engine;
  int& remaining;
  void operator()() const {
    if (--remaining > 0) engine.in(1.0, Tick{engine, remaining});
  }
};
}  // namespace

void BM_EngineSelfScheduling(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    int remaining = 10000;
    engine.in(1.0, Tick{engine, remaining});
    engine.run();
    benchmark::DoNotOptimize(engine.events_fired());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EngineSelfScheduling);

void BM_EdfPushPop(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  util::Rng rng(2);
  std::vector<task::TaskPtr> tasks;
  tasks.reserve(static_cast<std::size_t>(batch));
  for (int i = 0; i < batch; ++i) {
    tasks.push_back(task::make_local_task(static_cast<std::uint64_t>(i + 1), 0,
                                          0.0, 1.0, rng.uniform(0.0, 100.0)));
  }
  for (auto _ : state) {
    sched::ReadyQueue edf(sched::Policy::kEdf);
    for (const auto& t : tasks) edf.push(t);
    while (edf.size() > 0) benchmark::DoNotOptimize(edf.pop());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EdfPushPop)->Arg(64)->Arg(4096);

void BM_EdfRemoveMiddle(benchmark::State& state) {
  // Deadline-abort pattern: fill the ready queue, then remove tasks from the
  // middle by identity.  The indexed heap makes each remove O(log n) instead
  // of an O(n) scan.
  const int batch = static_cast<int>(state.range(0));
  util::Rng rng(4);
  std::vector<task::TaskPtr> tasks;
  tasks.reserve(static_cast<std::size_t>(batch));
  for (int i = 0; i < batch; ++i) {
    tasks.push_back(task::make_local_task(static_cast<std::uint64_t>(i + 1), 0,
                                          0.0, 1.0, rng.uniform(0.0, 100.0)));
  }
  for (auto _ : state) {
    sched::ReadyQueue edf(sched::Policy::kEdf);
    for (const auto& t : tasks) edf.push(t);
    for (int i = 0; i < batch; i += 2) {
      benchmark::DoNotOptimize(edf.remove(*tasks[static_cast<std::size_t>(i)]));
    }
    while (edf.size() > 0) benchmark::DoNotOptimize(edf.pop());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EdfRemoveMiddle)->Arg(64)->Arg(4096);

void BM_StrategyAssign(benchmark::State& state) {
  const auto div1 = core::make_psp_strategy("div-1");
  core::PspContext ctx;
  ctx.now = 3.0;
  ctx.deadline = 12.0;
  ctx.branch_count = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(div1->assign(ctx, 2, 1.0));
  }
}
BENCHMARK(BM_StrategyAssign);

void BM_SdaPlanWalk(benchmark::State& state) {
  // Figure 1's example shape with bound nodes and unit demands.
  const auto tree = task::parse_notation(
      "[T1@0:1 [T2@1:1 || [T3@2:1 T4@3:1 T5@4:1]] [T6@5:1 || T7@0:1] T8@1:1]");
  const auto psp = core::make_psp_strategy("div-1");
  const auto ssp = core::make_ssp_strategy("eqf");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::plan_assignment(*tree, 0.0, 40.0, *psp, *ssp));
  }
}
BENCHMARK(BM_SdaPlanWalk);

void BM_NotationParse(benchmark::State& state) {
  const std::string text =
      "[T1@0:1 [T2@1:1 || [T3@2:1 T4@3:1 T5@4:1]] [T6@5:1 || T7@0:1] T8@1:1]";
  for (auto _ : state) {
    benchmark::DoNotOptimize(task::parse_notation(text));
  }
}
BENCHMARK(BM_NotationParse);

void BM_TreeCloneAndCriticalPath(benchmark::State& state) {
  const auto tree = task::parse_notation(
      "[T1@0:1 [T2@1:1 || [T3@2:1 T4@3:1 T5@4:1]] [T6@5:1 || T7@0:1] T8@1:1]");
  for (auto _ : state) {
    const auto copy = task::clone(*tree);
    benchmark::DoNotOptimize(task::critical_path_ex(*copy));
  }
}
BENCHMARK(BM_TreeCloneAndCriticalPath);

void BM_ArenaCloneDrain(benchmark::State& state) {
  // Pool churn at run frequency: clone a batch of trees (pooled TreeNode
  // operator new), hold them live together, then drop them all (pooled
  // delete).  Steady state must run entirely off recycled blocks.
  const auto tree = task::parse_notation(
      "[T1@0:1 [T2@1:1 || [T3@2:1 T4@3:1 T5@4:1]] [T6@5:1 || T7@0:1] T8@1:1]");
  constexpr int kBatch = 64;
  std::vector<task::TreePtr> held;
  held.reserve(kBatch);
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) held.push_back(task::clone(*tree));
    benchmark::DoNotOptimize(held.data());
    held.clear();
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_ArenaCloneDrain);

void BM_ProcessManagerSubmitDrain(benchmark::State& state) {
  // Cost of the PM machinery itself: submit a 4-way parallel global to idle
  // nodes and drain it to completion, repeatedly.
  for (auto _ : state) {
    state.PauseTiming();
    sim::Engine engine;
    std::vector<std::unique_ptr<sched::Node>> nodes;
    std::vector<sched::Node*> node_ptrs;
    for (int i = 0; i < 6; ++i) {
      sched::Node::Config nc;
      nc.index = i;
      nodes.push_back(std::make_unique<sched::Node>(engine, nc));
      node_ptrs.push_back(nodes.back().get());
    }
    core::ProcessManager::Config pc;
    pc.psp = core::make_psp_strategy("div-1");
    pc.ssp = core::make_ssp_strategy("eqf");
    core::ProcessManager pm(engine, node_ptrs, std::move(pc));
    for (auto& n : nodes) {
      n->set_outcome_handler(
          [&pm](const task::TaskPtr& t, sched::Node::Outcome o) {
            pm.handle_outcome(t, o);
          });
    }
    state.ResumeTiming();
    for (int i = 0; i < 100; ++i) {
      pm.submit(task::parse_notation("[A@0:1 || B@1:1 || C@2:1 || D@3:1]"),
                engine.now() + 10.0, 100, 1);
      engine.run();
    }
    benchmark::DoNotOptimize(pm.completed_runs());
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_ProcessManagerSubmitDrain);

void BM_AdmissionDecision(benchmark::State& state) {
  // The serve path's hot loop: one full admission decision (plan walk +
  // feasibility battery + state machine) against a warm ledger.  Per-call
  // latency is tracked through metrics/percentile and exported as
  // counters so the scorecard can watch tail latency, not just the mean.
  core::AdmissionConfig ac;
  ac.node_count = 8;
  core::AdmissionController controller(ac);
  std::vector<task::TreePtr> shapes;
  for (int i = 0; i < 8; ++i) {
    const int a = i % 8, b = (i + 3) % 8;
    std::ostringstream notation;
    notation << "[A@" << a << ":0.4/0.4 || B@" << b << ":0.6/0.6]";
    shapes.push_back(task::parse_notation(notation.str()));
  }

  metrics::LogHistogram latency_ns(1.0, 1e9, 8);
  using Clock = std::chrono::steady_clock;
  double now = 0.0;
  std::uint64_t ticket = 1;
  for (auto _ : state) {
    const task::TreeNode& tree = *shapes[ticket % shapes.size()];
    const Clock::time_point t0 = Clock::now();
    const core::AdmissionOutcome out =
        controller.decide(tree, now, now + 4.0, ticket);
    latency_ns.add(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count()));
    benchmark::DoNotOptimize(out.decision);
    // Retire immediately: steady-state ledger, not an ever-growing one.
    controller.on_finished(ticket);
    ++ticket;
    now += 0.25;
  }
  state.SetItemsProcessed(state.iterations());
  const metrics::Quantiles q = metrics::summarize(latency_ns);
  state.counters["assign_p50_ns"] = q.p50;
  state.counters["assign_p99_ns"] = q.p99;
}
BENCHMARK(BM_AdmissionDecision);

/// The --serve script the front-door benchmarks share: @p subs
/// submissions with a completion every 4th once the pipeline is warm.
std::string serve_script(int subs) {
  std::string script;
  for (int i = 1; i <= subs; ++i) {
    std::ostringstream line;
    line << "sub id=" << i << " at=" << (0.25 * i)
         << " deadline=4 tree=[A@" << (i % 8) << ":0.4/0.4 || B@"
         << ((i + 3) % 8) << ":0.6/0.6]\n";
    script += line.str();
    if (i % 4 == 0 && i > 8) {
      script += "done id=" + std::to_string(i - 8) + "\n";
    }
  }
  return script;
}

void BM_ServeStream(benchmark::State& state) {
  // Sustained admissions/sec through the full --serve front door: parse,
  // gate, emit JSON decision, for a prebuilt script of repeated-template
  // submissions with periodic completions.
  constexpr int kSubs = 512;
  const std::string script = serve_script(kSubs);
  exp::ServeOptions opts;
  opts.admission.node_count = 8;

  std::uint64_t decisions = 0;
  for (auto _ : state) {
    std::istringstream in(script);
    std::ostringstream out;
    const exp::ServeResult r = exp::serve_stream(in, out, opts);
    decisions = r.decisions;
    benchmark::DoNotOptimize(out.str().size());
  }
  state.SetItemsProcessed(state.iterations() * kSubs);
  state.counters["decisions_per_stream"] = static_cast<double>(decisions);
}
BENCHMARK(BM_ServeStream);

/// A seeded in-process --serve stream for BM_ServeSessionHandleLine:
/// small parallel trees on 16 nodes at about twice their capacity, so the
/// retry queue stays non-empty and pump() retries its head on nearly every
/// line, plus whole-run and `leaf=` completions of earlier submissions.
std::vector<std::string> session_script(std::uint64_t seed, int subs) {
  util::Rng rng(seed);
  std::vector<std::string> script;
  double at = 0.0;
  for (int i = 1; i <= subs; ++i) {
    at += rng.exponential(0.04);
    std::ostringstream line;
    line << "sub id=" << i << " at=" << at
         << " deadline=" << rng.uniform(1.5, 6.0) << " tree=[";
    const int leaves = static_cast<int>(rng.uniform_int(2, 3));
    for (int l = 0; l < leaves; ++l) {
      const double demand = rng.uniform(0.2, 0.9);
      line << (l == 0 ? "" : " || ") << static_cast<char>('A' + l) << '@'
           << rng.uniform_int(0, 15) << ':' << demand << '/' << demand;
    }
    line << ']';
    script.push_back(line.str());
    if (i > 16 && rng.uniform01() < 0.6) {
      const std::int64_t id = rng.uniform_int(i - 16, i - 1);
      script.push_back("done id=" + std::to_string(id) +
                       (rng.uniform01() < 0.25 ? " leaf=0" : ""));
    }
  }
  return script;
}

void BM_ServeSessionHandleLine(benchmark::State& state) {
  // The session layer alone: parse, plan, feasibility, reply rendering;
  // journal off, no transport.  One fresh session per pass over the
  // stream; its construction is outside the ns_per_line timer.
  const std::vector<std::string> script = session_script(16, 2000);
  exp::ServeOptions opts;
  opts.admission.node_count = 16;
  using Clock = std::chrono::steady_clock;
  double ns = 0.0;
  std::uint64_t lines = 0;
  std::uint64_t parked = 0;
  std::vector<exp::ServeSession::Reply> replies;
  for (auto _ : state) {
    exp::ServeSession session(opts);
    const Clock::time_point t0 = Clock::now();
    for (const std::string& line : script) {
      replies.clear();
      session.handle_line(line, replies);
    }
    ns += static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
    lines += script.size();
    parked = session.controller().stats().queued;
    benchmark::DoNotOptimize(replies.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(lines));
  state.counters["ns_per_line"] =
      lines > 0 ? ns / static_cast<double>(lines) : 0.0;
  state.counters["parked_per_pass"] = static_cast<double>(parked);
}
BENCHMARK(BM_ServeSessionHandleLine);

/// One BM_ServeSocket* iteration loop; @p journal_path empty = no journal.
void serve_socket(benchmark::State& state, const std::string& journal_path) {
  constexpr int kSubs = 256;
  std::string script = serve_script(kSubs);
  // Sentinel tail: an unknown id is answered immediately on the same
  // connection, so seeing its reply means every earlier reply arrived.
  script += "done id=999999 at=1000\n";
  const std::string sentinel = "\"id\":999999";

  for (auto _ : state) {
    exp::ServeOptions opts;
    opts.admission.node_count = 8;
    opts.journal_path = journal_path;
    if (!journal_path.empty()) std::remove(journal_path.c_str());
    exp::ServeSession session(opts);
    exp::net::ServerOptions server_opts;  // 127.0.0.1, ephemeral port
    exp::net::ServeServer server(session, server_opts);
    std::string error;
    if (!session.open_journal(&error) || !server.start(&error)) {
      state.SkipWithError(error.c_str());
      return;
    }
    std::ostringstream drain;
    std::thread loop([&] { server.run(drain); });

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.bound_port());
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    bool ok = fd >= 0 &&
              ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof addr) == 0;
    std::size_t off = 0;
    while (ok && off < script.size()) {
      const ssize_t n = ::send(fd, script.data() + off, script.size() - off, 0);
      if (n <= 0) ok = false;
      else off += static_cast<std::size_t>(n);
    }
    std::string received;
    char buf[4096];
    while (ok && received.find(sentinel) == std::string::npos) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) ok = false;
      else received.append(buf, static_cast<std::size_t>(n));
    }
    if (fd >= 0) ::close(fd);
    server.request_stop();
    loop.join();
    if (!ok) {
      state.SkipWithError("socket round-trip failed");
      return;
    }
    benchmark::DoNotOptimize(received.size());
  }
  if (!journal_path.empty()) std::remove(journal_path.c_str());
  state.SetItemsProcessed(state.iterations() * kSubs);
}

void BM_ServeSocket(benchmark::State& state) {
  // End-to-end admissions/sec through the *socket* front door: TCP
  // loopback, the event loop on its own thread, one client writing the
  // BM_ServeStream script and reading every routed reply back.  The
  // delta against BM_ServeStream is the transport tax (poll wakeups,
  // line reassembly, reply routing, loopback copies).
  serve_socket(state, "");
}
BENCHMARK(BM_ServeSocket);

void BM_ServeSocketJournal(benchmark::State& state) {
  // BM_ServeSocket with the write-ahead journal on (default flush
  // settings), in the working directory: each event-loop turn pays one
  // fsync before its replies leave.
  serve_socket(state,
               "sda_bench_socket_" + std::to_string(::getpid()) + ".wal");
}
BENCHMARK(BM_ServeSocketJournal);

void BM_JournalRecoveryReplay(benchmark::State& state) {
  // Crash-recovery cost: replay an N-record sda.journal.v1 into a
  // fresh session (the kill -9 startup path).  Setup writes the
  // journal once by running the script through a journaling session;
  // the timed loop is open_journal() in replay-only mode.
  const int subs = static_cast<int>(state.range(0));
  const std::string path =
      "/tmp/sda_bench_recovery_" + std::to_string(::getpid()) + ".wal";
  std::remove(path.c_str());
  {
    exp::ServeOptions opts;
    opts.admission.node_count = 8;
    opts.journal_path = path;
    std::istringstream in(serve_script(subs));
    std::ostringstream out;
    exp::serve_stream(in, out, opts);
  }

  std::uint64_t replayed = 0;
  for (auto _ : state) {
    exp::ServeOptions opts;
    opts.admission.node_count = 8;
    opts.journal_path = path;
    opts.journal_replay_only = true;
    exp::ServeSession session(opts);
    std::string error;
    if (!session.open_journal(&error)) {
      state.SkipWithError(error.c_str());
      std::remove(path.c_str());
      return;
    }
    replayed = session.result().replayed;
    benchmark::DoNotOptimize(session.state_fingerprint());
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(replayed));
  state.counters["replayed_records"] = static_cast<double>(replayed);
}
BENCHMARK(BM_JournalRecoveryReplay)->Arg(512)->Arg(4096);

void BM_WholeReplication(benchmark::State& state) {
  exp::ExperimentConfig c = exp::baseline_config();
  c.sim_time = 5000.0;
  c.psp = "div-1";
  for (auto _ : state) {
    benchmark::DoNotOptimize(exp::run_once(c, 42));
  }
  state.SetLabel("5000 simulated time units, baseline system");
}
BENCHMARK(BM_WholeReplication);

// One large replication on the time-window fabric at 1/2/4/8 shards.  A
// scale-out scenario (DESIGN.md §4c): many nodes, almost-all-local work
// (messages only for the global fraction), and a nonzero control-plane
// latency so the conservative window amortizes barrier cost over many
// events.  The /1 run is the same model on one worker — the speedup
// claim is /8 vs /1 at equal net_latency.  (On a single-core host the
// sharded runs measure protocol overhead, not speedup; compare shard
// counts only on a machine with >= 8 cores.)
void BM_WholeReplicationSharded(benchmark::State& state) {
  exp::ExperimentConfig c = exp::baseline_config();
  c.k = 1024;
  c.n_min = c.n_max = 8;
  c.frac_local = 0.95;
  c.net_latency = 0.5;
  c.sim_time = 100.0;
  c.shards = static_cast<int>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    const exp::RunResult r = exp::run_once(c, 42);
    events = r.events_fired;
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("k=1024 frac_local=0.95 net_latency=0.5, 100 time units");
  state.counters["events"] = static_cast<double>(events);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_WholeReplicationSharded)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

}  // namespace

BENCHMARK_MAIN();
