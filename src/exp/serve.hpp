// The long-running admission front door behind `sda_run --serve`.
//
// The protocol (see src/exp/protocol.hpp for the grammar and limits):
//
//   sub id=<u64> at=<time> deadline=<rel> tree=<notation to end of line>
//   done id=<u64> [at=<time>] [leaf=<u32>]
//   # comment — ignored, as are blank lines
//
// `at` is the submission's logical clock (monotonically non-decreasing;
// the stream owns time, serve never reads a wall clock for decisions),
// `deadline` is relative to `at`, and `tree` uses the task notation
// with bound nodes and demands ("[a@0:2 || b@1:1.5]").  `done` retires
// an admitted run's ledger reservations early; `done ... leaf=<k>`
// retires just that leaf's reservation (partial completion), shrinking
// the completion-time ledgers immediately.  Both are the moments parked
// submissions get retried.
//
// The protocol engine is ServeSession: transport-independent, one line
// in, zero or more JSON replies out.  Three transports drive it:
//
//   * serve_stream — any istream (pipe, file, FIFO); the deterministic
//     test harness.  Byte-identical output across reruns.
//   * exp::net::ServeServer — the poll(2) socket listener (net.hpp).
//   * journal replay — recovery feeds journaled lines back through the
//     same code path with emission suppressed (journal.hpp).
//
// The transport contract is a group commit: a transport may feed a
// batch of lines, but it writes a reply only after a commit() that
// follows the line that produced it.  A reply therefore implies that
// its journal record is on disk, and one fsync covers the whole batch.
//
// Decisions are a pure function of the accepted input lines and the
// admission config: no RNG, no wall clock, no iteration over unordered
// containers.  Running the same stream twice produces byte-identical
// output, which the fingerprint tests assert.  Wall-clock latency measurement is therefore opt-in
// (`measure_latency`) and only ever shows up in the summary record.
//
// Malformed input is answered with one `sda.error.v1` record per bad
// line and never kills the stream (tests/test_serve_fuzz.cpp hammers
// this with seeded garbage).  A `done` for an id that is neither
// admitted nor parked is such an error: unknown or already retired.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/admission.hpp"
#include "src/exp/journal.hpp"
#include "src/exp/protocol.hpp"
#include "src/util/mutex.hpp"
#include "src/util/thread_annotations.hpp"

namespace sda::exp {

struct ServeOptions {
  core::AdmissionConfig admission;
  /// Measure per-decision wall latency (steady_clock) and report
  /// count/p50/p90/p99/p99.9 plus sustained admissions/sec in the
  /// summary.  Off by default: timing fields are nondeterministic bytes.
  bool measure_latency = false;

  /// Protocol hardening limits (line/field/tree sizes).
  ProtocolLimits limits;

  /// Write-ahead journal path.  Empty = no journal.  When set, an
  /// existing journal at that path is replayed before new input is
  /// accepted (crash recovery), then appended to.
  std::string journal_path;
  /// Cap on journal records per fsync.  The transports commit once per
  /// batch of lines, so the cap only binds on batches larger than this
  /// (serve_stream also commits when it holds this many replies).
  std::size_t journal_flush_every = 1024;
  /// Unused: commit() leaves nothing pending, so there is no timed
  /// flush.  Kept so existing callers (perfbench/) build.
  int journal_flush_interval_ms = 100;
  /// Replay the journal but do not append (read-only recovery check).
  bool journal_replay_only = false;

  /// Decision-latency deadline in nanoseconds (0 = off).  A decision
  /// that takes longer trips the overload state machine into shedding:
  /// the service degrades admission quality instead of queueing work it
  /// can no longer decide on time.  Wall-clock driven, so off by
  /// default in the deterministic harness.
  std::uint64_t decision_deadline_ns = 0;

  /// Attach a "retry_after" hint (relative stream time) to shed and
  /// backpressure decisions — the client's cue for when resubmission
  /// is worth trying.  Deterministic (derived from pressure), but off
  /// by default to keep PR-5-era byte compatibility.
  bool retry_hints = false;
  double retry_after_base = 1.0;
};

/// Socket-transport counters, folded into the drain summary when the
/// session is driven by exp::net::ServeServer.
struct ServeNetStats {
  std::uint64_t accepted = 0;            ///< connections accepted
  std::uint64_t rejected_connections = 0;///< over max_connections
  std::uint64_t evicted_slow = 0;        ///< write buffer overflow
  std::uint64_t evicted_idle = 0;        ///< idle timeout
  std::uint64_t evicted_request = 0;     ///< partial-line timeout
  std::uint64_t lines = 0;               ///< protocol lines processed
  std::uint64_t orphaned_replies = 0;    ///< decision after client left
};

struct ServeResult {
  std::uint64_t submissions = 0;  ///< `sub` lines seen (incl. replayed)
  std::uint64_t decisions = 0;    ///< decision records emitted
  std::uint64_t errors = 0;       ///< malformed/unknown lines answered
  std::uint64_t replayed = 0;     ///< journal records replayed at startup
  core::AdmissionStats stats;
};

/// The transport-independent protocol engine: parse, gate through the
/// admission controller, journal, reply.
class ServeSession {
 public:
  enum class ReplyKind {
    kDecision,  ///< final sda.admit.v1 verdict for `id`
    kError,     ///< sda.error.v1 for the line that was just fed
    kSummary,   ///< sda.serve.summary.v1 at finish()
  };
  struct Reply {
    ReplyKind kind = ReplyKind::kError;
    bool has_id = false;
    std::uint64_t id = 0;
    std::string line;  ///< full JSON line including trailing '\n'
  };

  explicit ServeSession(const ServeOptions& options);

  /// Opens (and replays, if it exists) the journal configured in
  /// ServeOptions.  Must be called before the first handle_line when a
  /// journal path is set.  Returns false with @p diag on failure.
  /// Without a journal path this is a no-op returning true.
  bool open_journal(std::string* diag);

  /// Feeds one protocol line (no trailing newline).  Replies — possibly
  /// none (a clean `done`), possibly several (pump resolutions for
  /// earlier-parked ids) — are appended to @p replies in emission order.
  /// Returns the id of a `sub` the session accepted (decided now or
  /// parked); its decision is among @p replies or comes later.
  std::optional<std::uint64_t> handle_line(std::string_view text,
                                           std::vector<Reply>& replies);

  /// Writes and fsyncs every journal record buffered so far.  Replies
  /// of the lines fed before this call may be sent once it returns.
  /// Returns false on a journal IO failure (counted in
  /// journal_io_errors()); a no-op returning true without a journal.
  bool commit();

  /// End of stream / drain: resolves everything still parked, appends a
  /// journal checkpoint, and emits the summary record.  @p net, when
  /// non-null, adds the socket-transport block to the summary.
  void finish(std::vector<Reply>& replies, const ServeNetStats* net = nullptr);

  /// FNV-1a fingerprint of the recoverable session state: controller
  /// fingerprint plus live/pending id sets and the submission/decision
  /// counters.  Replaying a journal reproduces it exactly.
  std::uint64_t state_fingerprint() const;

  // The session is single-owner: exactly one thread (the stream driver,
  // the socket event loop, or the replay path) may call the methods
  // above.  owner_ is the compile-time expression of that contract —
  // every public entry point assumes it, every private helper and every
  // piece of protocol state requires it, so a second thread reaching
  // into the session shows up as a -Wthread-safety error, not a race.

  bool replay_truncated() const noexcept {
    util::RoleGuard own(owner_);
    return replay_truncated_;
  }
  const std::string& replay_diagnostic() const noexcept {
    util::RoleGuard own(owner_);
    return replay_diagnostic_;
  }
  const ServeResult& result() const noexcept {
    util::RoleGuard own(owner_);
    return result_;
  }
  const core::AdmissionController& controller() const noexcept {
    return controller_;
  }
  std::uint64_t journal_io_errors() const noexcept {
    return journal_.io_errors();
  }

 private:
  /// handle_line/state_fingerprint bodies, shared by the public wrappers
  /// and owner-held internal callers (journal replay, finish).
  std::optional<std::uint64_t> handle_line_impl(std::string_view text,
                                                std::vector<Reply>& replies)
      SDA_REQUIRES(owner_);
  std::uint64_t fingerprint_impl() const SDA_REQUIRES(owner_);
  void emit_decision(std::vector<Reply>& replies, std::uint64_t id,
                     const core::AdmissionOutcome& outcome)
      SDA_REQUIRES(owner_);
  void emit_error(std::vector<Reply>& replies, ProtocolErrorCode code,
                  bool has_id, std::uint64_t id, const std::string& message)
      SDA_REQUIRES(owner_);
  void emit_resolved(
      std::vector<Reply>& replies,
      const std::vector<std::pair<std::uint64_t, core::AdmissionOutcome>>&
          resolved) SDA_REQUIRES(owner_);
  void journal_line(std::string_view text) SDA_REQUIRES(owner_);

  /// Single-owner role (see the class comment block above).
  util::ThreadRole owner_;
  ServeOptions options_;
  core::AdmissionController controller_;
  JournalWriter journal_;
  double now_ SDA_GUARDED_BY(owner_) = 0.0;
  /// Suppress emission/journaling during replay.
  bool replaying_ SDA_GUARDED_BY(owner_) = false;
  /// Journal had a torn tail.
  bool replay_truncated_ SDA_GUARDED_BY(owner_) = false;
  /// Where/why replay stopped.
  std::string replay_diagnostic_ SDA_GUARDED_BY(owner_);
  /// Parked in the retry queue.
  std::set<std::uint64_t> pending_ SDA_GUARDED_BY(owner_);
  /// Admitted, not yet done.
  std::set<std::uint64_t> live_ SDA_GUARDED_BY(owner_);
  ServeResult result_ SDA_GUARDED_BY(owner_);
  // Latency accounting (only when measure_latency / decision deadline).
  std::vector<double> latency_samples_ns_ SDA_GUARDED_BY(owner_);
  double busy_seconds_ SDA_GUARDED_BY(owner_) = 0.0;
};

/// Runs the admission service over @p in until EOF, writing JSON lines
/// to @p out.  Every `sub` line is answered by exactly one decision
/// record (possibly later in the stream, when the submission was parked
/// in the retry queue; at the latest from the EOF flush).  The
/// deterministic harness: byte-identical output across reruns.
/// Replies are held and written (then @p out flushed) after a commit,
/// whenever @p in has nothing buffered, `journal_flush_every` replies
/// are held, or at EOF.
ServeResult serve_stream(std::istream& in, std::ostream& out,
                         const ServeOptions& options);

}  // namespace sda::exp
