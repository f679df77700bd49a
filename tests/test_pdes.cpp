// Conservative time-window PDES (src/sim/fabric.*, exp/runner_sharded):
// the contract is that one replication's determinism fingerprint is
// bit-identical at every shard count — shards=1 (the serial engine) and
// shards in {2, 4, 8} (the message fabric) must produce the same trace and
// the same sda.run.v1 record, for every PSP x SSP pair, with and without
// faults and admission, at zero and nonzero lookahead.  Also unit-covers the fabric's building blocks
// (PathKey ordering, NodeStatusBoard) and the order in
// which shard 0 replays sink records (exact ties, zero-lookahead
// leftovers).
//
// This test runs under ThreadSanitizer in scripts/check_sanitizers.sh
// (the tsan ctest preset includes it), so keep the horizons short: TSan
// multiplies runtime ~10x.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/exp/config.hpp"
#include "src/exp/json_export.hpp"
#include "src/exp/runner.hpp"
#include "src/metrics/trace.hpp"
#include "src/sim/fabric.hpp"
#include "src/util/thread_pool.hpp"

namespace {

using namespace sda;
using exp::ExperimentConfig;

struct RunSummary {
  std::uint64_t fingerprint = 0;
  std::uint64_t locals_generated = 0;
  std::uint64_t globals_generated = 0;
  std::uint64_t globals_completed = 0;
  /// The whole sda.run.v1 line (diagnostics, admission, per-class counts
  /// and timings, per-node counters, distributions) minus the two members
  /// that are not shard-invariant: diag.events_fired (the fabric fires one
  /// extra event per cross-lane message) is zeroed and the fabric counter
  /// block is dropped.  The *trace* is shard-invariant, and so is every
  /// other member of the run record.
  std::string record;
};

/// One replication at the given shard count.
RunSummary run_at(ExperimentConfig c, int shards, std::uint64_t seed) {
  c.shards = shards;
  c.distributions = true;  // passive: puts the quantiles in the record too
  metrics::Tracer tracer(1);  // rolling fingerprint only
  exp::RunResult r = exp::run_once(c, seed, &tracer);
  RunSummary s;
  s.fingerprint = tracer.fingerprint();
  s.locals_generated = r.locals_generated;
  s.globals_generated = r.globals_generated;
  s.globals_completed = r.globals_completed;
  r.events_fired = 0;
  r.fabric.reset();
  std::ostringstream os;
  exp::write_run_json_line(c, 0, seed, s.fingerprint, r, os);
  s.record = os.str();
  return s;
}

void expect_shard_invariant(const ExperimentConfig& c, std::uint64_t seed,
                            const std::vector<int>& shard_counts,
                            const std::string& label) {
  const RunSummary ref = run_at(c, shard_counts.front(), seed);
  EXPECT_GT(ref.locals_generated + ref.globals_generated, 0u) << label;
  for (std::size_t i = 1; i < shard_counts.size(); ++i) {
    const int s = shard_counts[i];
    const RunSummary got = run_at(c, s, seed);
    EXPECT_EQ(got.fingerprint, ref.fingerprint)
        << label << ": shards=" << s << " vs shards=" << shard_counts.front();
    EXPECT_EQ(got.record, ref.record) << label << " s=" << s;
  }
}

/// k=8 so every shard count in {1, 2, 4, 8} divides the lanes evenly (and
/// 8 is a legal shard count at all: shards <= node count).
ExperimentConfig pdes_base() {
  ExperimentConfig c = exp::baseline_config();
  c.k = 8;
  c.sim_time = 300.0;
  c.replications = 1;
  c.warmup_fraction = 0.05;
  return c;
}

// --- the tentpole matrix: every strategy pair, every shard count ----------

TEST(PdesDeterminism, AllStrategyPairsAllShardCounts) {
  const char* psps[] = {"ud", "div-2", "div-4", "gf"};
  const char* ssps[] = {"ud", "ed", "eqs", "eqf"};
  for (const char* psp : psps) {
    for (const char* ssp : ssps) {
      ExperimentConfig c = pdes_base();
      c.psp = psp;
      c.ssp = ssp;
      expect_shard_invariant(c, 12345, {1, 2, 4, 8},
                             std::string(psp) + "/" + ssp);
    }
  }
}

// --- abortion regimes ------------------------------------------------------

TEST(PdesDeterminism, PmAbortAndLocalAbortRegimes) {
  ExperimentConfig c = pdes_base();
  c.psp = "gf";
  c.ssp = "ed";
  c.pm_abort = core::PmAbortMode::kRealDeadline;
  c.local_abort = sched::LocalAbortPolicy::kAbortOnVirtualDeadline;
  c.load = 0.8;  // enough pressure that aborts actually happen
  expect_shard_invariant(c, 777, {1, 2, 4, 8}, "abort-regimes");
}

// --- seeded faults ---------------------------------------------------------

TEST(PdesDeterminism, SeededFaultsAndRecovery) {
  ExperimentConfig c = pdes_base();
  c.fault_rate = 0.05;
  c.crash_mean_uptime = 120.0;
  c.crash_mean_downtime = 15.0;
  c.retry_backoff_base = 0.5;
  c.retry_backoff_factor = 2.0;
  c.pm_abort = core::PmAbortMode::kRealDeadline;
  expect_shard_invariant(c, 4242, {1, 2, 4, 8}, "faults");
}

// The default backoff retries a failed subtask at the instant it failed.
// The node must pick its next job before that retry reaches it, on the
// serial engine (where the failure handler resubmits synchronously) as on
// the fabric (where the retry arrives by message).
TEST(PdesDeterminism, SeededFaultsWithImmediateRetry) {
  ExperimentConfig c = pdes_base();
  c.fault_rate = 0.05;
  c.crash_mean_uptime = 120.0;
  c.crash_mean_downtime = 15.0;
  c.pm_abort = core::PmAbortMode::kRealDeadline;
  ASSERT_EQ(c.retry_backoff_base, 0.0);
  expect_shard_invariant(c, 4242, {1, 2, 4, 8}, "faults, zero backoff");
}

TEST(PdesDeterminism, GraphWorkloadWithLinksAndMessageFaults) {
  ExperimentConfig c = exp::graph_config();
  c.k = 6;
  c.link_count = 2;  // 8 lanes total
  c.msg_loss_rate = 0.03;
  c.msg_extra_delay_mean = 0.05;
  c.sim_time = 300.0;
  c.replications = 1;
  expect_shard_invariant(c, 99, {1, 2, 4, 8}, "graph+links");
}

// --- admission --------------------------------------------------------------

// Overload with the admission gate on: the gate lives on the control lane,
// and its counters and final state are part of the compared record.
TEST(PdesDeterminism, AdmissionUnderOverload) {
  ExperimentConfig c = pdes_base();
  c.admission = true;
  c.load = 2.5;
  c.frac_local = 0.0;
  c.sim_time = 400.0;
  expect_shard_invariant(c, 4242, {1, 2, 4}, "admission overload");
}

// --- lookahead -------------------------------------------------------------

// net_latency > 0 changes the *model* (control-plane messages arrive
// late), so the reference here is shards=1 in message mode — the window
// protocol with one worker — and the claim is shard-invariance at equal
// latency, not equality with latency 0.
TEST(PdesDeterminism, PositiveLookaheadIsShardInvariant) {
  ExperimentConfig c = pdes_base();
  c.net_latency = 0.5;
  c.pm_abort = core::PmAbortMode::kRealDeadline;
  expect_shard_invariant(c, 2024, {1, 2, 4, 8}, "latency=0.5");
}

// Zero lookahead must degrade to per-timestamp rounds, not deadlock; this
// completing at all (under load, with message traffic) is the regression
// test for the L=0 window rule.
TEST(PdesDeterminism, ZeroLookaheadCompletesWithoutDeadlock) {
  ExperimentConfig c = pdes_base();
  c.load = 0.7;
  const RunSummary s = run_at(c, 8, 31337);
  EXPECT_GT(s.globals_completed, 0u);
}

// --- run_experiment dispatch ----------------------------------------------

TEST(PdesDeterminism, RunExperimentMatchesSerialReport) {
  ExperimentConfig c = pdes_base();
  c.replications = 2;
  util::ThreadPool pool(2);

  std::vector<std::uint64_t> serial_fps;
  c.shards = 1;
  const metrics::Report serial = exp::run_experiment(c, pool, &serial_fps);

  std::vector<std::uint64_t> sharded_fps;
  c.shards = 4;
  const metrics::Report sharded = exp::run_experiment(c, pool, &sharded_fps);

  ASSERT_EQ(serial_fps.size(), 2u);
  EXPECT_EQ(serial_fps, sharded_fps);
  // Same records in, same aggregates out.
  EXPECT_EQ(serial.overall_missed_work().mean,
            sharded.overall_missed_work().mean);  // sda-lint: allow(FLOAT_EQ)
}

// --- fabric building blocks ------------------------------------------------

TEST(PathKey, LexicographicOrderIsDepthFirst) {
  sim::PathKey root;
  root.push(7);
  const sim::PathKey c0 = root.child(0);
  const sim::PathKey c1 = root.child(1);
  const sim::PathKey c0c0 = c0.child(0);
  // A parent's nested emissions sort between it and its next sibling —
  // exactly the serial engine's synchronous-call (depth-first) order.
  EXPECT_LT(root, c0);
  EXPECT_LT(c0, c0c0);
  EXPECT_LT(c0c0, c1);
  EXPECT_FALSE(c1 < c0);
  EXPECT_FALSE(root < root);
}

TEST(PathKey, PushBeyondMaxDepthThrows) {
  sim::PathKey k;
  for (int i = 0; i < sim::PathKey::kMaxDepth; ++i) k.push(1);
  EXPECT_THROW(k.push(1), std::logic_error);
}

TEST(NodeStatusBoard, HalfOpenOutageIntervals) {
  sim::NodeStatusBoard board;
  board.reset(3);
  board.add_outage(1, 10.0, 20.0);
  board.add_outage(1, 30.0, 35.0);
  EXPECT_TRUE(board.is_up(1, 9.99));
  EXPECT_FALSE(board.is_up(1, 10.0));   // down_at inclusive
  EXPECT_FALSE(board.is_up(1, 19.99));
  EXPECT_TRUE(board.is_up(1, 20.0));    // up_at exclusive
  EXPECT_FALSE(board.is_up(1, 32.0));
  EXPECT_TRUE(board.is_up(0, 15.0));    // other nodes unaffected
  EXPECT_TRUE(board.is_up(99, 15.0));   // out of range -> up
}

TEST(Fabric, ShardMapAndStats) {
  sim::Fabric::Options fo;
  fo.lanes = 8;
  fo.shards = 3;
  sim::Fabric fabric(fo);
  EXPECT_EQ(fabric.control_lane(), 8);
  EXPECT_EQ(fabric.shard_of(8), 0);  // control lane -> shard 0
  EXPECT_EQ(fabric.shard_of(0), 0);
  EXPECT_EQ(fabric.shard_of(1), 1);
  EXPECT_EQ(fabric.shard_of(5), 2);
  EXPECT_EQ(&fabric.engine_for_lane(8), &fabric.control_engine());
  EXPECT_EQ(fabric.events_fired(), 0u);
  EXPECT_EQ(fabric.events_pending(), 0u);
}

// --- sink-record replay order ------------------------------------------------

metrics::TraceRecord tagged(std::uint64_t id) {
  metrics::TraceRecord r;
  r.task_id = id;
  return r;
}

struct Replay {
  std::vector<std::uint64_t> ids;  ///< task_id of every record, as replayed
  std::uint64_t fallback_sorts = 0;
  std::uint64_t records_replayed = 0;
};

Replay replay_order(const metrics::Tracer& tracer, const sim::Fabric& f) {
  Replay r;
  for (const metrics::TraceRecord& rec : tracer.records()) {
    r.ids.push_back(rec.task_id);
  }
  r.fallback_sorts = f.fallback_sorts();
  r.records_replayed = f.records_replayed();
  return r;
}

// An exact tie on one shard: lane 1's root event at t=1 is scheduled
// before the run, and a message from lane 0's root at t=0 reaches lane 1
// at the same t=1.  Lane 1's engine fires the root first (FIFO among
// equal times), but the message descends from the earlier root, so its
// record sorts first: the shard's window records arrive out of
// (time, path) order and need the fallback sort.
Replay exact_tie(int shards) {
  sim::Fabric::Options fo;
  fo.lanes = 2;
  fo.shards = shards;
  fo.latency = 1.0;
  sim::Fabric fabric(fo);
  metrics::Tracer tracer;
  fabric.set_sinks(nullptr, &tracer);
  fabric.engine_for_lane(1).at(1.0, [&fabric] {
    fabric.emit_trace(1, tagged(3));
  });
  fabric.engine_for_lane(0).at(0.0, [&fabric] {
    fabric.emit_trace(0, tagged(1));
    fabric.post(0, 1, [&fabric] { fabric.emit_trace(1, tagged(2)); });
  });
  fabric.run(10.0);
  return replay_order(tracer, fabric);
}

// A zero-lookahead cascade: root A on lane 0 at t=1 posts M to lane 2
// and then emits record 4.  M (same shard as lane 0 at 1 and 2 shards)
// emits record 2 and posts M2 to lane 1, which emits record 3.  All
// share t=1, so record 4 is held over every flush while the cascade
// still runs, and the later sub-rounds' records — which sort before
// it — must merge in ahead of it.
Replay zero_lookahead_cascade(int shards) {
  sim::Fabric::Options fo;
  fo.lanes = 3;
  fo.shards = shards;
  fo.latency = 0.0;
  sim::Fabric fabric(fo);
  metrics::Tracer tracer;
  fabric.set_sinks(nullptr, &tracer);
  fabric.engine_for_lane(1).at(0.5, [&fabric] {
    fabric.emit_trace(1, tagged(1));
  });
  fabric.engine_for_lane(0).at(1.0, [&fabric] {
    fabric.post(0, 2, [&fabric] {
      fabric.emit_trace(2, tagged(2));
      fabric.post(2, 1, [&fabric] { fabric.emit_trace(1, tagged(3)); });
    });
    fabric.emit_trace(0, tagged(4));
  });
  fabric.run(10.0);
  return replay_order(tracer, fabric);
}

TEST(FabricReplay, ExactTieIsSortedOnItsShard) {
  const std::vector<std::uint64_t> sorted = {1, 2, 3};
  for (const int shards : {1, 2}) {
    const Replay r = exact_tie(shards);
    EXPECT_EQ(r.ids, sorted) << "shards=" << shards;
    EXPECT_GT(r.fallback_sorts, 0u) << "shards=" << shards;
    EXPECT_EQ(r.records_replayed, 3u) << "shards=" << shards;
  }
}

TEST(FabricReplay, ZeroLookaheadLeftoversMergeWithLaterSubRounds) {
  const std::vector<std::uint64_t> sorted = {1, 2, 3, 4};
  for (const int shards : {1, 2, 3}) {
    const Replay r = zero_lookahead_cascade(shards);
    EXPECT_EQ(r.ids, sorted) << "shards=" << shards;
    // Every window is already in order: the leftover merge, not the
    // fallback sort, is what puts record 4 last.
    EXPECT_EQ(r.fallback_sorts, 0u) << "shards=" << shards;
    EXPECT_EQ(r.records_replayed, 4u) << "shards=" << shards;
  }
}

}  // namespace
