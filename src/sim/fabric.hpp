// Conservative time-window parallel discrete-event simulation (PDES).
//
// A Fabric runs ONE replication across several worker threads ("shards")
// while keeping the result bit-identical to the serial engine.  The model
// is partitioned into *lanes*: lane i (i < lanes) hosts node i and all of
// its node-local machinery (scheduler, local source, per-node fault
// hooks); the extra *control lane* hosts the process manager, admission
// control, the global workload source and the metric sinks.  Each lane is
// pinned to a shard by a fixed map (control lane -> shard 0, node lane
// i -> shard i mod S), and each shard owns a private sim::Engine.
//
// Cross-lane interaction never touches another lane's objects directly;
// it travels as a *message*: a callback plus a delivery time
// (post time + latency L, the modeled control-plane message latency and
// the PDES lookahead).  Messages are buffered in one plain vector per
// (source shard, destination shard) pair and exchanged only at window
// boundaries: the source appends during the run phase, the destination
// drains after the barrier, and the barrier is the only synchronization
// the vector needs:
//
//   loop:
//     (A) every shard publishes the time of its earliest pending event;
//         barrier; T = global minimum.  T > horizon -> done.
//     (B) every shard fires its local events with time < T + L
//         (L == 0: time == T), appending outbound messages and deferred
//         sink records, then leaves its window's records in (time, path)
//         order (they almost always are already: a check, and a sort only
//         on exact timestamp ties); barrier.
//     (C) every shard drains the outboxes addressed to it (sorted by the
//         deterministic key below) into its engine, while shard 0 swaps
//         each shard's sorted records into that shard's *run*; barrier;
//         repeat.  At the next (A), shard 0 replays every settled record
//         into the Collector/Tracer by an S-way merge over the runs'
//         heads, while the other shards already fire their window.
//
// Safety: a message posted at time t >= T is delivered at t + L >= T + L,
// i.e. never inside the window any shard is still executing, so no shard
// can receive an event in its past.  With L == 0 the window degenerates
// to exactly the events at time T; messages posted at T are delivered at
// T and fire in the *next* iteration (same T), so zero lookahead costs
// extra rounds per timestamp instead of deadlocking, and same-timestamp
// cascades are finite because every service time is strictly positive.
//
// Determinism: every message and sink record carries a hierarchical
// *origin path* — the path of the event that produced it extended by a
// per-event emission counter.  Lexicographic (time, path) order over
// these keys reproduces the serial engine's depth-first synchronous-call
// order exactly, independent of shard count, which is what makes the
// Tracer fingerprint bit-identical for any S.  (Root events — ones
// scheduled lane-locally rather than by a message — get a fresh
// single-element path; two *distinct* root cascades colliding on the
// exact same timestamp is a measure-zero event under the model's
// continuous arrival/service/fault distributions.  `service_dist=
// deterministic` could manufacture such ties; the determinism contract
// is stated for continuous service distributions.)
//
// Layering note: this file lives in sim/ because it is the engine's
// parallel twin, but the deferred sink-record payloads reference
// metrics:: and core:: record types.  That is an include-only dependency
// (everything links into the single `sda` library); the alternative —
// type-erasing the payloads — would cost an allocation per record on the
// hottest path.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <variant>
#include <vector>

// Engine's parallel twin: include-only payload-type dependency
// (GlobalTaskRecord), see layering note above.
// sda-analyze: allow(LAYERING) payload-type-only dependency of the engine twin
#include "src/core/process_manager.hpp"  // GlobalTaskRecord
// sda-analyze: allow(LAYERING) deferred TraceRecord payload, same note
#include "src/metrics/trace.hpp"
#include "src/sim/engine.hpp"
#include "src/task/task.hpp"
#include "src/util/mutex.hpp"
#include "src/util/thread_annotations.hpp"

namespace sda::metrics {
class Collector;
}  // namespace sda::metrics

namespace sda::sim {

/// Hierarchical origin path: the deterministic tie-break key for
/// same-timestamp messages and sink records (see file comment).  A fixed
/// inline array — no heap traffic on the per-message path; depth is
/// bounded by the longest same-timestamp synchronous cascade in the
/// model (root -> notify -> PM handler -> resubmit -> node handler ->
/// emission is depth 6; 12 leaves generous headroom).
struct PathKey {
  static constexpr int kMaxDepth = 12;

  std::array<std::uint64_t, kMaxDepth> elem{};
  std::uint8_t depth = 0;

  void push(std::uint64_t v);

  /// Derived key for the n-th emission of the event this path names.
  PathKey child(std::uint64_t n) const {
    PathKey k = *this;
    k.push(n);
    return k;
  }

  friend bool operator<(const PathKey& a, const PathKey& b) noexcept {
    const int n = a.depth < b.depth ? a.depth : b.depth;
    for (int i = 0; i < n; ++i) {
      if (a.elem[i] != b.elem[i]) return a.elem[i] < b.elem[i];
    }
    return a.depth < b.depth;
  }
};

/// One cross-lane interaction: run @p fn on @p dst_lane's shard at
/// @p deliver_at, ordered among same-time messages by @p key.
struct Message {
  Time deliver_at = 0.0;
  int dst_lane = 0;
  PathKey key;
  EventFn fn;
};

/// Static crash calendar consulted by the process manager instead of
/// sched::Node::is_up(), which lives on another lane.  Filled from the
/// fault plan before the run; identical information, lane-safe.
///
/// Concurrency contract: frozen before Fabric::run() starts.  reset()
/// and add_outage() are setup-phase writes from the constructing
/// thread; during the run every shard reads is_up() concurrently, which
/// is safe only because nothing mutates.  This read-mostly freeze
/// discipline has no mutex to hang a capability on; it is documented
/// here and exercised under TSan (test_pdes) instead.
class NodeStatusBoard {
 public:
  void reset(int node_count) {
    outages_.assign(static_cast<std::size_t>(node_count), {});
  }

  /// Node @p node is down during the half-open interval [down_at, up_at).
  void add_outage(int node, Time down_at, Time up_at);

  /// True when no registered outage covers @p now (always true for nodes
  /// without outages, and for out-of-range ids).
  bool is_up(int node, Time now) const noexcept;

 private:
  std::vector<std::vector<std::pair<Time, Time>>> outages_;
};

/// Deferred metric emission: sinks live on the control shard, so lanes
/// buffer their records and shard 0 replays the global (time, path)
/// order between windows.
struct SinkRecord {
  Time time = 0.0;
  PathKey key;
  std::variant<metrics::TraceRecord, task::SimpleTask, core::GlobalTaskRecord>
      payload;
};

class Fabric {
 public:
  struct Options {
    /// Node lanes (compute + link nodes).  The control lane is `lanes`.
    int lanes = 1;
    /// Worker shards.  1 is legal: messages still flow through windows
    /// (the serial message-mode reference the sharded runs must match).
    int shards = 1;
    /// Modeled cross-lane message latency = the conservative lookahead L.
    Time latency = 0.0;
    /// Timer-queue backend name for every shard engine (see
    /// make_timer_queue()): "heap" or a registered decorator.
    std::string timer_queue = "heap";
  };

  explicit Fabric(const Options& opt);
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;
  ~Fabric();

  int lanes() const noexcept { return opt_.lanes; }
  int shards() const noexcept { return opt_.shards; }
  Time latency() const noexcept { return opt_.latency; }
  int control_lane() const noexcept { return opt_.lanes; }

  /// Fixed lane -> shard map (control lane -> 0, node lane i -> i mod S).
  int shard_of(int lane) const noexcept {
    return lane == opt_.lanes ? 0 : lane % opt_.shards;
  }

  Engine& engine_for_lane(int lane) noexcept {
    return *shards_[static_cast<std::size_t>(shard_of(lane))]->engine;
  }
  Engine& control_engine() noexcept { return *shards_[0]->engine; }

  /// Sinks replayed by shard 0 between windows; either may be null.
  void set_sinks(metrics::Collector* collector, metrics::Tracer* tracer) {
    collector_ = collector;
    tracer_ = tracer;
  }
  bool tracing() const noexcept { return tracer_ != nullptr; }

  NodeStatusBoard& status_board() noexcept { return status_; }
  const NodeStatusBoard& status_board() const noexcept { return status_; }

  /// Posts a cross-lane message from the event currently executing on
  /// @p src_lane's shard; @p fn runs on @p dst_lane's shard at
  /// now + latency.  Must be called from inside a fabric-run event.
  ///
  /// post()/emit_*() carry SDA_NO_THREAD_SAFETY_ANALYSIS: they are
  /// entered from type-erased model callbacks (EventFn) fired inside the
  /// run phase, where the calling shard does hold window_phase_, but the
  /// capability cannot propagate through the std::move_only_function
  /// boundary.  The phase-separation argument in the file comment is the
  /// actual safety proof; TSan covers it dynamically.
  void post(int src_lane, int dst_lane, EventFn fn)
      SDA_NO_THREAD_SAFETY_ANALYSIS;

  /// Defers a sink record from the event currently executing on
  /// @p src_lane's shard (replayed in deterministic order by shard 0).
  /// Same escape hatch as post(), same reason.
  void emit_trace(int src_lane, const metrics::TraceRecord& rec)
      SDA_NO_THREAD_SAFETY_ANALYSIS;
  void emit_simple(int src_lane, const task::SimpleTask& t)
      SDA_NO_THREAD_SAFETY_ANALYSIS;
  void emit_global(int src_lane, const core::GlobalTaskRecord& rec)
      SDA_NO_THREAD_SAFETY_ANALYSIS;

  /// Runs every shard to @p horizon (inclusive, like Engine::run_until)
  /// using the window protocol in the file comment.  Spawns shards-1
  /// worker threads; the caller executes shard 0.  On return every
  /// shard's clock sits at the horizon.  A model exception from any
  /// shard aborts the run on the next window boundary and is rethrown.
  void run(Time horizon);

  // --- statistics (single-threaded use, outside run()) --------------------
  std::uint64_t events_fired() const noexcept;
  std::size_t events_pending() const noexcept;
  std::uint64_t messages_posted() const noexcept { return messages_posted_; }
  // Post-join single-threaded read of a phase-guarded counter: run() has
  // returned, so no shard thread exists to race with.
  std::uint64_t windows() const noexcept SDA_NO_THREAD_SAFETY_ANALYSIS {
    return windows_;
  }
  /// Sink records replayed into the collector/tracer (same post-join read).
  std::uint64_t records_replayed() const noexcept
      SDA_NO_THREAD_SAFETY_ANALYSIS {
    return records_replayed_;
  }
  /// Shard-windows whose records needed the fallback sort: an exact
  /// timestamp tie emitted out of (time, path) order on one shard.
  std::uint64_t fallback_sorts() const noexcept { return fallback_sorts_; }

 private:
  /// Per-shard state, padded so neighbouring shards' hot fields never
  /// share a cache line.
  struct alignas(64) Shard {
    int index = 0;
    std::unique_ptr<Engine> engine;
    /// Origin path of a pending *message* event, indexed by its
    /// EventQueue slot; depth 0 = not a message (lane-local root).
    std::vector<PathKey> slot_paths;
    /// Path of the event currently executing + its emission counter.
    PathKey cur_path;
    std::uint64_t next_child = 0;
    /// Fresh-root sequence for lane-local events.
    std::uint64_t next_root = 0;
    /// Deferred sink records produced this window; in (time, path) order
    /// once the run phase returns.
    // sda-lint: allow(UNBOUNDED_QUEUE) bounded by one window's emissions
    std::vector<SinkRecord> records;
    /// Scratch for the drain phase (kept to reuse capacity).
    std::vector<Message> inbound;
    /// Earliest pending time published at barrier A (+inf when idle).
    Time announced = 0.0;
    std::uint64_t posted = 0;
    /// Windows whose records were not already in (time, path) order.
    std::uint64_t fallback_sorts = 0;
  };

  /// One shard's records as shard 0 holds them: sorted by (time, path),
  /// replayed up to `next`.
  struct Run {
    // sda-lint: allow(UNBOUNDED_QUEUE) one window plus frontier leftovers
    std::vector<SinkRecord> records;
    std::size_t next = 0;  ///< first record not yet replayed
    std::size_t end = 0;   ///< set by flush_records: end of the replayable span
  };

  std::vector<Message>& outbox(int src_shard, int dst_shard) noexcept
      SDA_REQUIRES(window_phase_) {
    return outboxes_[static_cast<std::size_t>(src_shard) *
                         static_cast<std::size_t>(opt_.shards) +
                     static_cast<std::size_t>(dst_shard)];
  }

  /// One worker's window loop (see file comment); `sync` is a
  /// std::barrier shared by all shards, passed type-erased to keep
  /// <barrier> out of this header.  Assumes window_phase_ for its whole
  /// duration.
  struct Barrier;
  void worker_loop(int shard, Time horizon, Barrier& sync);
  /// Fires local events inside [T, window), then puts the window's
  /// records in (time, path) order; returns on quiesce.
  void run_phase(Shard& sh, Time window_min, Time horizon)
      SDA_REQUIRES(window_phase_);
  /// Inserts inbound messages into @p sh's engine in deterministic order.
  void drain_phase(int shard) SDA_REQUIRES(window_phase_);
  /// Shard 0: swaps each shard's sorted window records into its run (no
  /// record is moved, capacity is recycled).  Records are NOT replayed
  /// here: at zero lookahead one same-timestamp cascade spans several
  /// sub-rounds, so a record's final (time, path) position is only
  /// settled once the window clock has moved strictly past its
  /// timestamp.  Such leftovers stay in their run, and the next window's
  /// records are merged in behind them.
  void collect_records() SDA_REQUIRES(window_phase_);
  /// Shard 0: replays every record with time < before into the
  /// collector/tracer by an S-way merge over the runs' heads; records at
  /// exactly `before` stay in their runs (their cascade may still be
  /// emitting).  Pass +inf to flush all.
  void flush_records(Time before) SDA_REQUIRES(window_phase_);
  void replay(const SinkRecord& rec) SDA_REQUIRES(window_phase_);

  Options opt_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Fake capability for the window protocol: every shard thread assumes
  /// it for the duration of worker_loop().  It does not provide mutual
  /// exclusion (all shards hold it at once) — the barrier protocol's
  /// phase separation does that; what the capability enforces at compile
  /// time is that *no code outside the window protocol* can reach the
  /// phase-guarded state below (outboxes, deferred records, the window
  /// counter).
  util::ThreadRole window_phase_;
  /// Messages posted this window, in push order; [src * S + dst].
  std::vector<std::vector<Message>> outboxes_ SDA_GUARDED_BY(window_phase_);
  NodeStatusBoard status_;
  metrics::Collector* collector_ = nullptr;
  metrics::Tracer* tracer_ = nullptr;
  /// One run per shard, owned by shard 0.
  std::vector<Run> runs_ SDA_GUARDED_BY(window_phase_);
  std::uint64_t messages_posted_ = 0;
  std::uint64_t fallback_sorts_ = 0;
  std::uint64_t windows_ SDA_GUARDED_BY(window_phase_) = 0;
  std::uint64_t records_replayed_ SDA_GUARDED_BY(window_phase_) = 0;
  /// First model exception from any shard; every shard checks the flag
  /// at the next barrier and unwinds together (no thread left blocking).
  std::atomic<bool> stop_flag_{false};
  util::Mutex failure_mu_;
  std::exception_ptr failure_ SDA_GUARDED_BY(failure_mu_);
};

}  // namespace sda::sim
