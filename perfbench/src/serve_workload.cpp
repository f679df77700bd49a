// serve-journal: the admission front door (exp::net::ServeServer driving
// an exp::ServeSession with the write-ahead journal) over TCP loopback.
//
// One process: the calling thread is the client (it sends and receives),
// one thread runs the server's event loop.  Each round starts a fresh
// server and journal, sends one segment's line stream on one connection,
// waits for every reply the stream produces before the drain, drains, and
// then replays the journal read-only.
//
//   * open loop: line i is due at start + i / rate; every decision is
//     timed from when the line that produced it was due, so a stall
//     charges every request queued behind it;
//   * closed loop: at most kClosedLoopWindow lines in flight.
//
// The expected replies come from an in-process reference (the same lines
// through exp::serve_stream) computed outside the timed region.
#include <arpa/inet.h>
#include <fcntl.h>
#include <poll.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "src/core/admission.hpp"
#include "src/exp/journal.hpp"
#include "src/exp/net.hpp"
#include "src/exp/protocol.hpp"
#include "src/exp/serve.hpp"
#include "src/task/notation.hpp"
#include "src/task/tree.hpp"
#include "src/workloads.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- the in-process reference ---------------------------------------------

struct Reference {
  std::string payload;               ///< every line + '\n'
  std::vector<std::size_t> line_end; ///< payload offset after line i
  std::string replies;               ///< serve_stream output minus summary
  /// Replies emitted while lines are processed (before the drain), with
  /// the index of the line that produced each and whether it is a
  /// decision record.
  std::vector<std::uint32_t> reply_line;
  std::vector<char> reply_is_decision;
  std::vector<std::uint64_t> cum_replies;  ///< replies from lines [0, i]
  std::uint64_t subs = 0;
  std::map<std::uint64_t, std::string> verdict;  ///< sub id -> decision
};

std::uint64_t field_u64(std::string_view line, std::string_view key) {
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return 0;
  std::uint64_t v = 0;
  for (std::size_t i = at + key.size(); i < line.size(); ++i) {
    const char c = line[i];
    if (c < '0' || c > '9') break;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

std::string field_str(std::string_view line, std::string_view key) {
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return {};
  const std::size_t start = at + key.size();
  const std::size_t end = line.find('"', start);
  return std::string(line.substr(start, end - start));
}

bool is_decision(std::string_view line) {
  return line.find("\"sda.admit.v1\"") != std::string_view::npos;
}

// Every decision record in @p bytes: id -> decision, counting repeats.
std::map<std::uint64_t, std::vector<std::string>> decisions_in(
    const std::string& bytes) {
  std::map<std::uint64_t, std::vector<std::string>> out;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    std::size_t end = bytes.find('\n', pos);
    if (end == std::string::npos) end = bytes.size();
    const std::string_view line(bytes.data() + pos, end - pos);
    if (is_decision(line)) {
      out[field_u64(line, "\"id\":")].push_back(
          field_str(line, "\"decision\":\""));
    }
    pos = end + 1;
  }
  return out;
}

Reference build_reference(const ServeTraffic& traffic,
                          const sda::exp::ServeOptions& opts) {
  Reference ref;
  ref.subs = traffic.subs;
  for (const std::string& line : traffic.lines) {
    ref.payload += line;
    ref.payload += '\n';
    ref.line_end.push_back(ref.payload.size());
  }
  std::istringstream in(ref.payload);
  std::ostringstream out;
  sda::exp::serve_stream(in, out, opts);
  ref.replies = std::move(out).str();
  // Drop the trailing sda.serve.summary.v1 record: the socket server
  // writes it to its control stream, not to the client.
  const std::size_t last = ref.replies.rfind('\n', ref.replies.size() - 2);
  ref.replies.resize(last == std::string::npos ? 0 : last + 1);

  // Which line produced each reply: the same lines through a session,
  // one at a time.
  sda::exp::ServeSession session(opts);
  std::vector<sda::exp::ServeSession::Reply> replies;
  for (std::size_t i = 0; i < traffic.lines.size(); ++i) {
    replies.clear();
    session.handle_line(traffic.lines[i], replies);
    for (const auto& r : replies) {
      ref.reply_line.push_back(static_cast<std::uint32_t>(i));
      const bool d = r.kind == sda::exp::ServeSession::ReplyKind::kDecision;
      ref.reply_is_decision.push_back(d ? 1 : 0);
    }
    ref.cum_replies.push_back(ref.reply_line.size());
  }
  for (const auto& [id, v] : decisions_in(ref.replies)) {
    ref.verdict[id] = v.front();
  }
  return ref;
}

// --- one socket round -------------------------------------------------------

struct Round {
  double setup_s = 0.0;
  double wall_s = 0.0;  ///< first send -> last pre-drain reply
  std::uint64_t decisions = 0;
  std::vector<double> latency_us;  ///< open loop only
  std::vector<double> late_us;     ///< open loop only: send - due
  std::string received;
  bool all_replies = false;  ///< every pre-drain reply arrived in time
  double recovery_s = 0.0;
  std::uint64_t live_fp = 0;
  std::uint64_t replay_fp = 0;
  std::uint64_t evictions = 0;
  std::uint64_t orphaned = 0;
};

std::uint64_t hex_field(const std::string& s, std::string_view key) {
  const std::string v = field_str(s, key);
  return v.empty() ? 0 : std::stoull(v, nullptr, 16);
}

// Re-arms immediate acknowledgement on the client socket.  Linux leaves
// quick-ACK mode again on its own (for instance when the client sends), so
// the client re-arms it after every send and every receive.
void quickack(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
}

Round socket_round(const Reference& ref, const sda::exp::ServeOptions& base,
                   const std::string& journal, bool open_loop,
                   double rate) {
  Round round;
  std::filesystem::remove(journal);
  sda::exp::ServeOptions opts = base;
  opts.journal_path = journal;

  // Set-up: server start until the client's connect completes.
  const Clock::time_point setup_start = Clock::now();
  sda::exp::ServeSession session(opts);
  std::string err;
  const bool journal_ok = session.open_journal(&err);
  sda::exp::net::ServerOptions sopts;
  sopts.listen.host = "127.0.0.1";
  sopts.listen.port = 0;
  sopts.max_line_bytes = opts.limits.max_line_bytes;
  sda::exp::net::ServeServer server(session, sopts);
  if (!journal_ok || !server.start(&err)) {
    std::fprintf(stderr, "perfbench: serve start failed: %s\n", err.c_str());
    return round;
  }
  std::ostringstream summary;
  std::thread loop([&] { server.run(summary); });
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.bound_port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  const bool connected =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0;
  round.setup_s = secs(setup_start, Clock::now());

  const std::size_t n_lines = ref.line_end.size();
  const std::size_t expected = ref.reply_line.size();
  // The open-loop schedule is fixed before the first send.
  const Clock::time_point start = Clock::now();
  std::vector<Clock::time_point> due(n_lines, start);
  if (open_loop) {
    const std::chrono::duration<double> gap(1.0 / rate);
    for (std::size_t i = 0; i < n_lines; ++i) {
      due[i] = start + std::chrono::duration_cast<Clock::duration>(
                           gap * static_cast<double>(i));
    }
  }
  // The client: one thread on a non-blocking socket that hands due (open
  // loop) or allowed (closed loop) lines to the socket and reads whatever
  // replies have arrived.  In the closed loop it sleeps in poll() when it
  // has nothing to do, leaving the CPUs to the server; in the open loop it
  // spins, so that each line leaves when it is due.
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  const Clock::time_point give_up = start + std::chrono::seconds(60);
  char buf[1 << 16];
  std::size_t next = 0;        // lines handed to the socket
  std::size_t sent_bytes = 0;  // payload bytes the socket took
  std::size_t complete = 0;    // reply lines received
  Clock::time_point last_reply = start;
  bool ok = connected;
  while (ok && complete < expected) {
    const Clock::time_point now = Clock::now();
    if (now > give_up) break;
    std::size_t last = next;
    if (open_loop) {
      while (last < n_lines && due[last] <= now) {
        round.late_us.push_back(secs(due[last], now) * 1e6);
        ++last;
      }
    } else {
      // Line i may go once the replies of every line up to i - window
      // have arrived.
      const std::size_t got = std::min(complete, expected);
      while (last < n_lines && (last < kClosedLoopWindow ||
                                ref.cum_replies[last - kClosedLoopWindow] <= got)) {
        ++last;
      }
    }
    next = last;
    const std::size_t want = next == 0 ? 0 : ref.line_end[next - 1];
    while (sent_bytes < want) {
      const ssize_t w = ::send(fd, ref.payload.data() + sent_bytes,
                               want - sent_bytes, MSG_NOSIGNAL);
      if (w <= 0) {
        ok = w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
        break;
      }
      quickack(fd);
      sent_bytes += static_cast<std::size_t>(w);
    }
    const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    if (r <= 0) {
      ok = ok && r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
      if (ok && !open_loop) {
        pollfd pfd{fd, static_cast<short>(POLLIN | (sent_bytes < want ? POLLOUT : 0)),
                   0};
        ::poll(&pfd, 1, 100);
      }
      continue;
    }
    quickack(fd);
    const Clock::time_point at = Clock::now();
    const std::size_t before = round.received.size();
    round.received.append(buf, static_cast<std::size_t>(r));
    for (std::size_t i = before; i < round.received.size(); ++i) {
      if (round.received[i] != '\n') continue;
      if (complete < expected && ref.reply_is_decision[complete]) {
        ++round.decisions;
        if (open_loop) {
          round.latency_us.push_back(secs(due[ref.reply_line[complete]], at) * 1e6);
        }
      }
      ++complete;
    }
    last_reply = at;
  }
  round.all_replies = ok && complete >= expected;
  round.wall_s = secs(start, last_reply);
  // The drain's replies, then the server closes the connection.
  server.request_stop();
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) & ~O_NONBLOCK);
  for (;;) {
    const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    if (r <= 0) break;
    round.received.append(buf, static_cast<std::size_t>(r));
  }
  loop.join();
  ::close(fd);
  // The drain summary (sda.serve.summary.v1) carries the journal
  // fingerprint and the transport counters.
  const std::string drained = summary.str();
  round.live_fp = hex_field(drained, "\"fingerprint\":\"");
  round.evictions = field_u64(drained, "\"evicted_slow\":") +
                    field_u64(drained, "\"evicted_idle\":") +
                    field_u64(drained, "\"evicted_request\":");
  round.orphaned = field_u64(drained, "\"orphaned_replies\":");

  // Recovery: replay the journal read-only into a fresh session.
  sda::exp::ServeOptions ro = base;
  ro.journal_path = journal;
  ro.journal_replay_only = true;
  const Clock::time_point r0 = Clock::now();
  sda::exp::ServeSession replay(ro);
  if (replay.open_journal(&err)) round.replay_fp = replay.state_fingerprint();
  round.recovery_s = secs(r0, Clock::now());
  std::filesystem::remove(journal);
  return round;
}

// --- the traced layer split ---------------------------------------------------

struct LayerSplit {
  std::uint64_t lines = 0;
  double parse_s = 0.0;
  std::uint64_t decisions = 0;
  double decide_s = 0.0;
  std::size_t ledger_max = 0;
  std::uint64_t transitions = 0;
  sda::core::PlanCache::Stats cache;
  std::uint64_t appends = 0;
  std::uint64_t bytes = 0;
  std::uint64_t flushes = 0;
  double flush_s = 0.0;
  double journal_s = 0.0;
  double handle_line_s = 0.0;
  double session_untimed_s = 0.0;
  double session_timed_s = 0.0;
  std::uint64_t agree = 0;
  std::uint64_t disagree = 0;
};

// Feeds @p lines through a ServeSession with the journal on, optionally
// timing every handle_line call.  Returns the pass's wall time.
double session_pass(const std::vector<std::string>& lines,
                    const sda::exp::ServeOptions& base,
                    const std::string& journal, double* handle_line_s) {
  std::filesystem::remove(journal);
  sda::exp::ServeOptions opts = base;
  opts.journal_path = journal;
  sda::exp::ServeSession session(opts);
  std::string err;
  session.open_journal(&err);
  std::vector<sda::exp::ServeSession::Reply> replies;
  const Clock::time_point t0 = Clock::now();
  double total = 0.0;
  for (const std::string& line : lines) {
    replies.clear();
    if (handle_line_s != nullptr) {
      const Clock::time_point a = Clock::now();
      session.handle_line(line, replies);
      total += secs(a, Clock::now());
    } else {
      session.handle_line(line, replies);
    }
  }
  const double wall = secs(t0, Clock::now());
  if (handle_line_s != nullptr) *handle_line_s = total;
  replies.clear();
  session.finish(replies);
  std::filesystem::remove(journal);
  return wall;
}

LayerSplit layer_split(const ServeTraffic& traffic, const Reference& ref,
                       const sda::exp::ServeOptions& opts,
                       const std::string& journal) {
  LayerSplit s;
  const std::vector<std::string>& lines = traffic.lines;

  // Session: untimed, then with every handle_line timed.
  s.session_untimed_s = session_pass(lines, opts, journal, nullptr);
  s.session_timed_s = session_pass(lines, opts, journal, &s.handle_line_s);

  // exp.protocol: the line grammar plus the tree notation.
  std::vector<sda::exp::ParsedLine> parsed;
  parsed.reserve(lines.size());
  for (const std::string& line : lines) {
    const Clock::time_point a = Clock::now();
    sda::exp::ParsedLine p = sda::exp::parse_serve_line(line, opts.limits);
    if (p.code == sda::exp::ProtocolErrorCode::kNone && p.verb == "sub") {
      sda::task::TreePtr tree = sda::task::parse_notation(p.tree);
      (void)sda::task::validate(*tree);
    }
    s.parse_s += secs(a, Clock::now());
    parsed.push_back(std::move(p));
    ++s.lines;
  }

  // core.admission: the session's state logic, replayed against a bare
  // controller; only controller calls are timed.  Lines the session would
  // journal are collected for the journal pass.
  sda::core::AdmissionController ctl(opts.admission);
  std::set<std::uint64_t> live;
  std::set<std::uint64_t> pending;
  std::vector<std::size_t> journaled;
  double now = 0.0;
  const auto record = [&](std::uint64_t id, const sda::core::AdmissionOutcome& o) {
    ++s.decisions;
    pending.erase(id);
    if (o.decision == sda::core::AdmissionDecision::kAdmit ||
        o.decision == sda::core::AdmissionDecision::kAdmitDegraded) {
      live.insert(id);
    }
    const auto it = ref.verdict.find(id);
    if (it != ref.verdict.end() && it->second == sda::core::to_string(o.decision)) {
      ++s.agree;
    } else {
      ++s.disagree;
    }
  };
  const auto timed_pump = [&] {
    const Clock::time_point a = Clock::now();
    auto resolved = ctl.pump(now);
    s.decide_s += secs(a, Clock::now());
    for (const auto& [id, o] : resolved) record(id, o);
  };
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    const sda::exp::ParsedLine& p = parsed[i];
    if (p.ignorable || p.code != sda::exp::ProtocolErrorCode::kNone) continue;
    if (p.has_at && p.at < now) continue;
    if (p.verb == "done") {
      const bool is_live = live.count(p.id) != 0;
      if (!is_live && pending.count(p.id) == 0) continue;
      journaled.push_back(i);
      if (p.has_at) now = p.at;
      if (is_live) {
        const Clock::time_point a = Clock::now();
        if (p.has_leaf) {
          ctl.on_leaf_finished(p.id, p.leaf);
        } else {
          ctl.on_finished(p.id);
        }
        s.decide_s += secs(a, Clock::now());
        if (!p.has_leaf) live.erase(p.id);
      }
      timed_pump();
      continue;
    }
    if (p.verb != "sub" || live.count(p.id) != 0 || pending.count(p.id) != 0) {
      continue;
    }
    sda::task::TreePtr tree = sda::task::parse_notation(p.tree);
    journaled.push_back(i);
    now = p.at;
    timed_pump();
    const Clock::time_point a = Clock::now();
    auto sr = ctl.submit(std::move(tree), now, now + p.deadline, p.id);
    s.decide_s += secs(a, Clock::now());
    s.ledger_max = std::max(s.ledger_max, ctl.ledger_size());
    if (sr.queued) {
      pending.insert(p.id);
    } else {
      record(p.id, sr.outcome);
    }
  }
  {
    const Clock::time_point a = Clock::now();
    auto resolved = ctl.flush(now);
    s.decide_s += secs(a, Clock::now());
    for (const auto& [id, o] : resolved) record(id, o);
  }
  const sda::core::AdmissionStats& st = ctl.stats();
  s.transitions = st.to_degraded + st.to_shedding + st.to_normal;
  s.cache = ctl.cache_stats();

  // exp.journal: the journaled lines through a JournalWriter configured
  // like the session's; a flush happens on every flush_every-th append.
  std::filesystem::remove(journal);
  sda::exp::JournalWriter writer;
  sda::exp::JournalWriter::Config jc;
  jc.flush_every = opts.journal_flush_every;
  jc.flush_interval = std::chrono::milliseconds(opts.journal_flush_interval_ms);
  std::string err;
  writer.open(journal, jc, &err);
  for (const std::size_t i : journaled) {
    const Clock::time_point a = Clock::now();
    writer.append_event(lines[i]);
    const double d = secs(a, Clock::now());
    s.journal_s += d;
    ++s.appends;
    if (s.appends % jc.flush_every == 0) {
      ++s.flushes;
      s.flush_s += d;
    }
  }
  {
    const Clock::time_point a = Clock::now();
    writer.close();
    const double d = secs(a, Clock::now());
    s.journal_s += d;
    s.flush_s += d;
    ++s.flushes;
  }
  std::error_code ec;
  s.bytes = std::filesystem::file_size(journal, ec);
  std::filesystem::remove(journal);
  return s;
}

struct Segment {
  ServeTraffic traffic;
  Reference ref;
};

void add(LayerSplit& into, const LayerSplit& x) {
  into.lines += x.lines;
  into.parse_s += x.parse_s;
  into.decisions += x.decisions;
  into.decide_s += x.decide_s;
  into.ledger_max = std::max(into.ledger_max, x.ledger_max);
  into.transitions += x.transitions;
  into.cache.hits += x.cache.hits;
  into.cache.misses += x.cache.misses;
  into.cache.evictions += x.cache.evictions;
  into.appends += x.appends;
  into.bytes += x.bytes;
  into.flushes += x.flushes;
  into.flush_s += x.flush_s;
  into.journal_s += x.journal_s;
  into.handle_line_s += x.handle_line_s;
  into.session_untimed_s += x.session_untimed_s;
  into.session_timed_s += x.session_timed_s;
  into.agree += x.agree;
  into.disagree += x.disagree;
}

}  // namespace

sda::exp::ServeOptions serve_options() {
  sda::exp::ExperimentConfig c = sda::exp::baseline_config();
  c.set("k", "16");
  sda::exp::ServeOptions opts;
  opts.admission = c.admission_config();
  return opts;
}

namespace {

// The serve workload's rounds.  Every step runs the next segment (closed
// loop; in a traced run open loop and closed loop); finish() reports.
class ServePhase final : public Phase {
 public:
  ServePhase(int segments, const RunSpec& spec, bool home,
             Report& report)
      : spec_(spec), home_(home), opts_(serve_options()) {
    std::uint64_t total_lines = 0;
    std::uint64_t total_unique = 0;
    for (int k = 0; k < segments; ++k) {
      GenParams gp;
      gp.subs = kServeSegmentSubs;
      Segment seg;
      seg.traffic = generate_serve_traffic(
          spec.seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(k + 1),
          gp);
      seg.ref = build_reference(seg.traffic, opts_);
      total_lines += seg.traffic.lines.size();
      total_unique += seg.traffic.unique_trees;
      segs_.push_back(std::move(seg));
    }
    report.note("serve traffic: " + std::to_string(segments) +
                " segments of " + std::to_string(kServeSegmentSubs) +
                " subs, " + std::to_string(total_lines) + " lines, " +
                std::to_string(total_unique) + " unique trees");
    std::filesystem::create_directories(spec.workdir);
    journal_ = spec.workdir + "/serve-" + std::to_string(::getpid()) + ".journal";
  }

  int min_steps() const override { return static_cast<int>(segs_.size()); }

  // An untraced run measures only the closed loop: the open-loop
  // latencies are not gated (see README.md) and are reported by the
  // traced run, which runs both loops on every segment.
  void step(Report& report) override {
    const Reference& ref = segs_[pairs_ % segs_.size()].ref;
    const std::vector<bool> loops =
        spec_.trace ? std::vector<bool>{true, false} : std::vector<bool>{false};
    for (const bool open_loop : loops) {
      const Round r = socket_round(ref, opts_, journal_, open_loop,
                                   kOpenLoopLinesPerSecond);
      const std::string what = std::string(open_loop ? "open" : "closed") +
                               "-loop round " + std::to_string(pairs_ + 1);
      report.attempt(ref.subs);
      subs_sent_ += ref.subs;
      report.check(r.all_replies,
                   what + ": all " + std::to_string(ref.reply_line.size()) +
                       " pre-drain replies arrived");
      report.check(r.received == ref.replies,
                   what + ": replies match in-process serve_stream byte for byte");
      std::uint64_t unanswered = 0;
      std::uint64_t repeated = 0;
      const auto got = decisions_in(r.received);
      for (const auto& [id, v] : ref.verdict) {
        const auto it = got.find(id);
        if (it == got.end()) {
          ++unanswered;
        } else if (it->second.size() > 1) {
          ++repeated;
        }
      }
      unanswered_ += unanswered;
      report.fail(unanswered, what + ": subs never answered");
      report.fail(repeated, what + ": subs answered more than once");
      report.check(r.live_fp != 0 && r.replay_fp == r.live_fp,
                   what + ": read-only journal replay reproduces state_fingerprint");
      setup_.push_back(r.setup_s);
      recovery_.push_back(r.recovery_s);
      evictions_ += r.evictions;
      orphaned_ += r.orphaned;
      if (open_loop) {
        std::vector<double> v = r.latency_us;
        std::sort(v.begin(), v.end());
        round_p50_.push_back(percentile_sorted(v, 50.0));
        round_p99_.push_back(percentile_sorted(v, 99.0));
        decisions_timed_ += v.size();
        late_.insert(late_.end(), r.late_us.begin(), r.late_us.end());
      } else {
        rates_.push_back(static_cast<double>(r.decisions) / r.wall_s);
      }
    }
    ++pairs_;
  }

  void finish(Report& report) override;

 private:
  RunSpec spec_;
  bool home_;
  sda::exp::ServeOptions opts_;
  std::vector<Segment> segs_;
  std::string journal_;
  std::size_t pairs_ = 0;
  std::vector<double> setup_, late_, rates_, recovery_;
  std::vector<double> round_p50_, round_p99_;  ///< per open-loop round
  std::uint64_t decisions_timed_ = 0;
  std::uint64_t subs_sent_ = 0;
  std::uint64_t unanswered_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t orphaned_ = 0;
};

void ServePhase::finish(Report& report) {
  // Verdict shares, exact per seed (from the references; the checks above
  // tie every round's replies to them byte for byte).
  std::uint64_t subs = 0;
  std::uint64_t admitted = 0;
  std::uint64_t refused = 0;
  std::uint64_t errored = 0;
  std::map<std::string, std::uint64_t> by_kind;
  for (const Segment& seg : segs_) {
    subs += seg.ref.subs;
    for (const auto& [id, v] : seg.ref.verdict) {
      ++by_kind[v];
      if (v == "admit" || v == "admit_degraded") ++admitted;
      if (v == "shed" || v == "backpressure") ++refused;
    }
    // A sub answered only by an error record has no verdict.
    errored += seg.ref.subs - seg.ref.verdict.size();
  }
  std::string kinds;
  for (const auto& [k, n] : by_kind) kinds += " " + k + "=" + std::to_string(n);
  report.note("verdicts of " + std::to_string(subs) + " subs:" + kinds +
              " errored=" + std::to_string(errored));

  const Summary s_setup = summarize(setup_);
  const Summary s_late = summarize(late_);
  const Summary s_rate = summarize(rates_);
  const Summary s_rec = summarize(recovery_);
  const Summary s_p50 = summarize(round_p50_);
  const Summary s_p99 = summarize(round_p99_);
  report.log_timing("serve setup (server start to first connection)", "s", s_setup);
  report.log_timing("closed-loop capacity per round", "decisions/s", s_rate);
  report.log_timing("journal read-only replay", "s", s_rec);


  if (spec_.trace) {
    report.log_timing("open-loop per-round decision p50", "us", s_p50);
    report.log_timing("open-loop per-round decision p99", "us", s_p99);
    report.log_timing("open-loop generator lateness", "us", s_late);
    // Latency percentiles are taken per open-loop round (about a thousand
    // decisions each) and reported as the median over rounds: host stalls
    // last longer than a round, so they move whole rounds, not the median.
    const std::string per_round =
        "median over " + std::to_string(round_p50_.size()) +
        " open-loop rounds, " + std::to_string(decisions_timed_) + " decisions";
    LayerSplit ls;
    for (const Segment& seg : segs_) {
      add(ls, layer_split(seg.traffic, seg.ref, opts_, journal_));
    }
    report.attempt(ls.lines);
    report.check(ls.disagree == 0,
                 "admission replay agrees with the session on every decision (" +
                     std::to_string(ls.agree) + " agree, " +
                     std::to_string(ls.disagree) + " disagree)");
    report.check(ls.decisions == subs - errored,
                 "admission replay decides every sub the session decided");
    const double residual = ls.handle_line_s - ls.parse_s - ls.decide_s - ls.journal_s;
    report.note("handle_line " + json_number(ls.handle_line_s) + " s = parse " +
                json_number(ls.parse_s) + " + admission " +
                json_number(ls.decide_s) + " + journal " +
                json_number(ls.journal_s) + " + residual " +
                json_number(residual));
    report.check(ls.parse_s > 0.0 && ls.decide_s > 0.0 && ls.journal_s > 0.0 &&
                     residual > -0.25 * ls.handle_line_s,
                 "parse + admission + journal + residual accounts for "
                 "handle_line (residual not below -25%)");
    std::vector<double> closed_per_decision;
    for (const double rate : rates_) closed_per_decision.push_back(1.0 / rate);
    const double per_decision = median(closed_per_decision);
    report.add("exp.protocol.lines", static_cast<double>(ls.lines), "count", 1);
    report.add("exp.protocol.parse_s", ls.parse_s, "s", 1);
    report.add("core.admission.decisions", static_cast<double>(ls.decisions), "count", 1);
    report.add("core.admission.decide_s", ls.decide_s, "s", 1);
    report.add("core.admission.ledger_max", static_cast<double>(ls.ledger_max), "count", 1);
    report.add("core.admission.state_transitions", static_cast<double>(ls.transitions),
               "count", 1);
    report.add("core.plan_cache.hits", static_cast<double>(ls.cache.hits), "count", 1);
    report.add("core.plan_cache.misses", static_cast<double>(ls.cache.misses), "count", 1);
    report.add("core.plan_cache.hit_ratio",
               ratio(static_cast<double>(ls.cache.hits),
                     static_cast<double>(ls.cache.hits + ls.cache.misses)),
               "ratio", ls.cache.hits + ls.cache.misses);
    report.add("exp.journal.appends", static_cast<double>(ls.appends), "count", 1);
    report.add("exp.journal.bytes", static_cast<double>(ls.bytes), "bytes", 1);
    report.add("exp.journal.flushes", static_cast<double>(ls.flushes), "count", 1);
    report.add("exp.journal.flush_s", ls.flush_s, "s", ls.flushes);
    report.add("exp.serve.handle_line_s", ls.handle_line_s, "s", ls.lines);
    report.add("exp.serve.residual_s", residual, "s", 1);
    report.add("exp.net.transport_s",
               per_decision - ratio(ls.handle_line_s, static_cast<double>(ls.lines)),
               "s", rates_.size(), "per decision");
    report.add("exp.net.evictions", static_cast<double>(evictions_), "count", 2 * pairs_);
    report.add("exp.net.orphaned_replies", static_cast<double>(orphaned_), "count",
               2 * pairs_);
    report.add("decision_p50_us", s_p50.median, "us", decisions_timed_, per_round);
    report.add("decision_p99_us", s_p99.median, "us", decisions_timed_, per_round);
    std::sort(late_.begin(), late_.end());
    report.add("bench.gen_late_p99_us", percentile_sorted(late_, 99.0), "us",
               late_.size());
    report.add("bench.trace_overhead_pct",
               pct(ls.session_timed_s - ls.session_untimed_s, ls.session_untimed_s),
               "%", 1, "timed vs untimed handle_line pass");
    return;
  }

  if (home_) report.add("setup_s", s_setup.median, "s", s_setup.n);
  report.add("serve_decisions_per_s", s_rate.median, "decisions/s", s_rate.n,
             "median over closed-loop rounds");
  report.add("admit_pct", pct(static_cast<double>(admitted), static_cast<double>(subs)),
             "%", subs, "exact per seed");
  // Errored and refused verdicts are exact per seed; unanswered subs (0 in
  // a correct run) are counted over every sub sent.
  report.add("error_pct",
             pct(static_cast<double>(errored + refused), static_cast<double>(subs)) +
                 pct(static_cast<double>(unanswered_),
                     static_cast<double>(subs_sent_)),
             "%", subs_sent_);
  report.add("recovery_s", s_rec.median, "s", s_rec.n);
}

}  // namespace

std::unique_ptr<Phase> make_serve_phase(int segments, const RunSpec& spec,
                                        bool home, Report& report) {
  return std::make_unique<ServePhase>(segments, spec, home, report);
}

void add_zero_serve_layers(Report& report) {
  for (const char* name :
       {"exp.protocol.lines", "core.admission.decisions",
        "core.admission.ledger_max", "core.admission.state_transitions",
        "core.plan_cache.hits", "core.plan_cache.misses", "exp.journal.appends",
        "exp.journal.flushes", "exp.net.evictions", "exp.net.orphaned_replies"}) {
    report.add(name, 0.0, "count", 0);
  }
  for (const char* name :
       {"exp.protocol.parse_s", "core.admission.decide_s", "exp.journal.flush_s",
        "exp.serve.handle_line_s", "exp.serve.residual_s", "exp.net.transport_s"}) {
    report.add(name, 0.0, "s", 0);
  }
  report.add("core.plan_cache.hit_ratio", 0.0, "ratio", 0);
  report.add("exp.journal.bytes", 0.0, "bytes", 0);
  report.add("decision_p50_us", 0.0, "us", 0);
  report.add("decision_p99_us", 0.0, "us", 0);
  report.add("bench.gen_late_p99_us", 0.0, "us", 0);
}

}  // namespace perfbench
