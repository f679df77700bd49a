#include "src/exp/serve.hpp"

#include <chrono>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/metrics/json_writer.hpp"
#include "src/metrics/percentile.hpp"
#include "src/task/notation.hpp"
#include "src/task/tree.hpp"
#include "src/util/fnv.hpp"

namespace sda::exp {

namespace {

using Clock = std::chrono::steady_clock;

void render_decision(std::string& out, std::uint64_t id, double at,
                     const core::AdmissionOutcome& outcome, bool retry_hint,
                     double retry_after) {
  // Sized for the fixed members plus ~64 bytes per leaf: one allocation.
  out.reserve(out.size() + 256 + 64 * outcome.plan.size());
  metrics::JsonWriter w(out);
  w.begin_object()
      .kv("schema", "sda.admit.v1")
      .kv("id", id)
      .kv("at", at)
      .kv("decision", core::to_string(outcome.decision))
      .kv("state", core::to_string(outcome.state))
      .kv("reason", outcome.reason)
      .kv("pressure", outcome.pressure)
      .kv("deadline", outcome.deadline);
  if (!outcome.plan.empty()) {
    w.key("leaves").begin_array();
    for (const core::PlanEntry& a : outcome.plan) {
      w.begin_object()
          .kv("node", a.node)
          .kv("dispatch", a.planned_dispatch)
          .kv("deadline", a.virtual_deadline)
          .end_object();
    }
    w.end_array();
  }
  if (retry_hint) w.kv("retry_after", retry_after);
  w.end_object();
  out += '\n';
}

std::string render_error(ProtocolErrorCode code, bool has_id,
                         std::uint64_t id, double at,
                         std::string_view message) {
  std::string out;
  metrics::JsonWriter w(out);
  w.begin_object().kv("schema", "sda.error.v1");
  if (has_id) w.kv("id", id);
  w.kv("at", at)
      .kv("code", to_string(code))
      .kv("reason", message)
      .end_object();
  out += '\n';
  return out;
}

}  // namespace

ServeSession::ServeSession(const ServeOptions& options)
    : options_(options), controller_(options.admission) {}

bool ServeSession::open_journal(std::string* diag) {
  util::RoleGuard own(owner_);
  if (options_.journal_path.empty()) return true;
  const JournalReadResult existing = read_journal(options_.journal_path);
  if (existing.ok) {
    // Crash recovery: re-feed every journaled event through the normal
    // code path with emission, journaling, and timing suppressed.  The
    // journal only ever holds lines that validated, so this cannot
    // error, and the controller lands bit-identical to where the
    // previous process stood when the record was written.
    replaying_ = true;
    std::vector<Reply> scratch;
    for (const JournalRecord& record : existing.records) {
      if (record.type != 'E') continue;
      handle_line_impl(record.payload, scratch);
      ++result_.replayed;
    }
    replaying_ = false;
    replay_truncated_ = existing.truncated;
    replay_diagnostic_ = existing.diagnostic;
  }
  // existing.ok == false usually means "no journal yet" (fresh start);
  // a present-but-foreign file is rejected by the writer below.
  if (options_.journal_replay_only) return true;
  JournalWriter::Config config;
  config.flush_every = options_.journal_flush_every;
  config.flush_interval =
      std::chrono::milliseconds(options_.journal_flush_interval_ms);
  return journal_.open(options_.journal_path, config, diag);
}

void ServeSession::journal_line(std::string_view text) {
  if (replaying_ || !journal_.is_open()) return;
  // Write-ahead: the record is buffered before the controller mutates,
  // so a journaled-but-unapplied tail at crash time merely replays into
  // the same state the line would have produced.  It is durable at the
  // next commit(), before any reply it caused leaves the process.
  if (!journal_.append_event(text)) { /* sticky; counted in io_errors */ }
}

void ServeSession::emit_decision(std::vector<Reply>& replies,
                                 std::uint64_t id,
                                 const core::AdmissionOutcome& outcome) {
  pending_.erase(id);
  if (outcome.decision == core::AdmissionDecision::kAdmit ||
      outcome.decision == core::AdmissionDecision::kAdmitDegraded) {
    live_.insert(id);
  }
  ++result_.decisions;
  if (replaying_) return;
  const bool hint =
      options_.retry_hints &&
      (outcome.decision == core::AdmissionDecision::kShed ||
       outcome.decision == core::AdmissionDecision::kBackpressure);
  const double retry_after =
      now_ + options_.retry_after_base * (1.0 + outcome.pressure);
  Reply reply;
  reply.kind = ReplyKind::kDecision;
  reply.has_id = true;
  reply.id = id;
  render_decision(reply.line, id, now_, outcome, hint, retry_after);
  replies.push_back(std::move(reply));
}

void ServeSession::emit_error(std::vector<Reply>& replies,
                              ProtocolErrorCode code, bool has_id,
                              std::uint64_t id, const std::string& message) {
  ++result_.errors;
  if (replaying_) return;  // unreachable: the journal holds valid lines
  Reply reply;
  reply.kind = ReplyKind::kError;
  reply.has_id = has_id;
  reply.id = id;
  reply.line = render_error(code, has_id, id, now_, message);
  replies.push_back(std::move(reply));
}

void ServeSession::emit_resolved(
    std::vector<Reply>& replies,
    const std::vector<std::pair<std::uint64_t, core::AdmissionOutcome>>&
        resolved) {
  for (const auto& [id, outcome] : resolved) {
    emit_decision(replies, id, outcome);
  }
}

std::optional<std::uint64_t> ServeSession::handle_line(
    std::string_view text, std::vector<Reply>& replies) {
  util::RoleGuard own(owner_);
  return handle_line_impl(text, replies);
}

std::optional<std::uint64_t> ServeSession::handle_line_impl(
    std::string_view text, std::vector<Reply>& replies) {
  const ParsedLine line = parse_serve_line(text, options_.limits);
  if (line.ignorable) return std::nullopt;
  if (line.code != ProtocolErrorCode::kNone) {
    emit_error(replies, line.code, line.has_id, line.id, line.error);
    return std::nullopt;
  }
  // The stream clock is monotonic; a violating line is answered and
  // discarded *without* advancing state — malformed input must leave
  // nothing behind, or the journal could not skip it.
  if (line.has_at && line.at < now_) {
    emit_error(replies, ProtocolErrorCode::kClock, line.has_id, line.id,
               "time went backwards (stream clock is monotonic)");
    return std::nullopt;
  }

  if (line.verb == "done") {
    if (!line.has_id) {
      emit_error(replies, ProtocolErrorCode::kField, line.has_id, line.id,
                 "done needs id=");
      return std::nullopt;
    }
    const bool is_live = live_.count(line.id) != 0;
    const bool is_pending = pending_.count(line.id) != 0;
    if (!is_live && !is_pending) {
      emit_error(replies, ProtocolErrorCode::kUnknownId, true, line.id,
                 "done for unknown or already-retired id " +
                     std::to_string(line.id));
      return std::nullopt;
    }
    journal_line(text);  // state-changing from here on
    if (line.has_at) now_ = line.at;
    if (is_live) {
      if (line.has_leaf) {
        // Partial completion: retire one leaf's reservation, shrinking
        // the completion-time ledgers immediately.  The run stays live
        // until a whole-run done retires the rest.
        controller_.on_leaf_finished(line.id, line.leaf);
      } else {
        controller_.on_finished(line.id);
        live_.erase(line.id);
      }
    }
    // A done for a parked submission retires nothing (it never ran),
    // but either way freed capacity or an advanced clock is a retry
    // moment for the queue.
    emit_resolved(replies, controller_.pump(now_));
    return std::nullopt;
  }
  if (line.verb != "sub") {
    emit_error(replies, ProtocolErrorCode::kVerb, line.has_id, line.id,
               "unknown verb '" + line.verb + "'");
    return std::nullopt;
  }
  if (!line.has_id || !line.has_at || !line.has_deadline || !line.has_tree) {
    emit_error(replies, ProtocolErrorCode::kField, line.has_id, line.id,
               "sub needs id=, at=, deadline=, tree=");
    return std::nullopt;
  }
  if (line.deadline <= 0.0) {
    emit_error(replies, ProtocolErrorCode::kField, line.has_id, line.id,
               "deadline must be positive");
    return std::nullopt;
  }
  if (live_.count(line.id) != 0 || pending_.count(line.id) != 0) {
    emit_error(replies, ProtocolErrorCode::kDuplicateId, true, line.id,
               "duplicate id " + std::to_string(line.id) +
                   " (still in flight)");
    return std::nullopt;
  }
  ++result_.submissions;

  task::TreePtr tree;
  try {
    tree = task::parse_notation(line.tree);
  } catch (const std::exception& e) {
    emit_error(replies, ProtocolErrorCode::kTree, true, line.id, e.what());
    return std::nullopt;
  }
  const std::string invalid = task::validate(*tree);
  if (!invalid.empty()) {
    emit_error(replies, ProtocolErrorCode::kTree, true, line.id, invalid);
    return std::nullopt;
  }

  journal_line(text);  // validated: this line now owns its state change
  now_ = line.at;

  // Earlier-parked submissions get first claim on freed capacity.
  emit_resolved(replies, controller_.pump(now_));

  const bool timing =
      !replaying_ &&
      (options_.measure_latency || options_.decision_deadline_ns > 0);
  const Clock::time_point t0 = timing ? Clock::now() : Clock::time_point{};
  core::AdmissionController::SubmitResult sr =
      controller_.submit(std::move(tree), now_, now_ + line.deadline, line.id);
  if (timing) {
    const auto dt = Clock::now() - t0;
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count());
    if (options_.measure_latency) {
      latency_samples_ns_.push_back(ns);
      busy_seconds_ += ns * 1e-9;
    }
    if (options_.decision_deadline_ns > 0 &&
        ns > static_cast<double>(options_.decision_deadline_ns)) {
      // The decision itself blew its latency budget: a wall-clock
      // overload signal the load-derived pressure cannot see.  Trip the
      // state machine into shedding; hysteresis governs recovery.
      // (Not journaled — wall time does not replay.)
      controller_.trip_shedding();
    }
  }
  if (sr.queued) {
    pending_.insert(line.id);
  } else {
    emit_decision(replies, line.id, sr.outcome);
  }
  return line.id;
}

bool ServeSession::commit() {
  util::RoleGuard own(owner_);
  return !journal_.is_open() || journal_.flush();
}

std::uint64_t ServeSession::state_fingerprint() const {
  util::RoleGuard own(owner_);
  return fingerprint_impl();
}

std::uint64_t ServeSession::fingerprint_impl() const {
  // Covers exactly the journal-reproducible state: the controller (its
  // own fingerprint walks ledgers, queue, pressure, counters) plus the
  // session's id-routing sets.  Per-process observables (error counts,
  // replay counts, latency) are deliberately outside.
  std::uint64_t h = controller_.fingerprint();
  util::fnv1a_mix_value(h, live_.size());
  for (const std::uint64_t id : live_) util::fnv1a_mix_value(h, id);
  util::fnv1a_mix_value(h, pending_.size());
  for (const std::uint64_t id : pending_) util::fnv1a_mix_value(h, id);
  return h;
}

void ServeSession::finish(std::vector<Reply>& replies,
                          const ServeNetStats* net) {
  util::RoleGuard own(owner_);
  // The fingerprint published in the summary describes the state after
  // every accepted line but *before* the drain flush below — exactly
  // what replaying the journal reproduces (--recover-check prints the
  // same value), since the flush itself is not a journaled input.
  const std::uint64_t fp = fingerprint_impl();
  emit_resolved(replies, controller_.flush(now_));

  result_.stats = controller_.stats();

  std::string summary;
  metrics::JsonWriter w(summary);
  w.begin_object()
      .kv("schema", "sda.serve.summary.v1")
      .kv("submissions", result_.submissions)
      .kv("decisions", result_.decisions)
      .kv("errors", result_.errors)
      .kv("admitted", result_.stats.admitted)
      .kv("admitted_degraded", result_.stats.admitted_degraded)
      .kv("rejected", result_.stats.rejected)
      .kv("shed", result_.stats.shed)
      .kv("backpressure", result_.stats.backpressure)
      .kv("queued", result_.stats.queued)
      .kv("queue_high_water",
          static_cast<std::uint64_t>(result_.stats.queue_high_water))
      .kv("final_state", core::to_string(controller_.state()))
      .kv("final_pressure", controller_.pressure());
  w.key("transitions")
      .begin_object()
      .kv("to_degraded", result_.stats.to_degraded)
      .kv("to_shedding", result_.stats.to_shedding)
      .kv("to_normal", result_.stats.to_normal)
      .end_object();
  if (options_.measure_latency) {
    metrics::LogHistogram latency_ns(1.0, 1e9, 8);  // 1 ns .. 1 s
    for (const double ns : latency_samples_ns_) latency_ns.add(ns);
    const metrics::Quantiles q = metrics::summarize(latency_ns);
    w.key("assign_latency_ns")
        .begin_object()
        .kv("count", static_cast<std::uint64_t>(q.count))
        .kv("mean", q.mean)
        .kv("p50", q.p50)
        .kv("p90", q.p90)
        .kv("p99", q.p99)
        .kv("p999", q.p999)
        .end_object();
    w.kv("admissions_per_sec",
         busy_seconds_ > 0.0
             ? static_cast<double>(result_.stats.admitted +
                                   result_.stats.admitted_degraded) /
                   busy_seconds_
             : 0.0);
  }
  if (!options_.journal_path.empty()) {
    char fp_hex[17];
    std::snprintf(fp_hex, sizeof fp_hex, "%016llx",
                  static_cast<unsigned long long>(fp));
    w.key("journal")
        .begin_object()
        .kv("records", journal_.records_appended())
        .kv("replayed", result_.replayed)
        .kv("io_errors", journal_.io_errors())
        .kv("fingerprint", fp_hex)
        .end_object();
  }
  if (net != nullptr) {
    w.key("net")
        .begin_object()
        .kv("accepted", net->accepted)
        .kv("rejected_connections", net->rejected_connections)
        .kv("evicted_slow", net->evicted_slow)
        .kv("evicted_idle", net->evicted_idle)
        .kv("evicted_request", net->evicted_request)
        .kv("lines", net->lines)
        .kv("orphaned_replies", net->orphaned_replies)
        .end_object();
  }
  w.end_object();

  if (journal_.is_open()) {
    // Checkpoint = the summary itself, durably flushed: a later replay
    // can tell a clean drain from a crash mid-stream.
    if (!journal_.append_checkpoint(summary)) { /* counted in io_errors */ }
    journal_.close();
  }

  Reply reply;
  reply.kind = ReplyKind::kSummary;
  reply.line = summary + '\n';
  replies.push_back(std::move(reply));
}

ServeResult serve_stream(std::istream& in, std::ostream& out,
                         const ServeOptions& options) {
  ServeSession session(options);
  std::string diag;
  if (!session.open_journal(&diag)) {
    out << render_error(ProtocolErrorCode::kIo, false, 0, 0.0, diag);
    return session.result();
  }
  // Group commit: hold replies while more input is already buffered,
  // then commit once and write them all.
  std::vector<ServeSession::Reply> replies;
  const auto commit_and_write = [&] {
    if (!session.commit()) { /* counted in journal_io_errors */ }
    for (const ServeSession::Reply& r : replies) out << r.line;
    out.flush();
    replies.clear();
  };
  std::string text;
  while (std::getline(in, text)) {
    session.handle_line(text, replies);
    if (in.rdbuf()->in_avail() <= 0 ||
        replies.size() >= options.journal_flush_every) {
      commit_and_write();
    }
  }
  commit_and_write();
  session.finish(replies);
  for (const ServeSession::Reply& r : replies) out << r.line;
  return session.result();
}

}  // namespace sda::exp
