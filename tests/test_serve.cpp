// The sda_run --serve stream loop: protocol handling, one decision per
// submission, deterministic bytes, and a golden overload script.
#include "src/exp/serve.hpp"

#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <set>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "src/exp/journal.hpp"
#include "src/util/fnv.hpp"

namespace {

using namespace sda;

exp::ServeOptions options() {
  exp::ServeOptions o;
  o.admission.node_count = 2;
  o.admission.queue_capacity = 1;
  return o;
}

std::pair<exp::ServeResult, std::string> run(const std::string& input,
                                             const exp::ServeOptions& opts) {
  std::istringstream in(input);
  std::ostringstream out;
  const exp::ServeResult r = exp::serve_stream(in, out, opts);
  return {r, out.str()};
}

std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

std::size_t count_substr(const std::string& text, const std::string& what) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(what); pos != std::string::npos;
       pos = text.find(what, pos + what.size())) {
    ++n;
  }
  return n;
}

exp::ServeOptions overload_options() {
  exp::ServeOptions o;
  o.admission.node_count = 3;
  o.admission.queue_capacity = 4;
  o.admission.enter_degraded = 0.45;
  o.admission.exit_degraded = 0.35;
  o.admission.enter_shedding = 0.6;
  o.admission.exit_shedding = 0.5;
  o.retry_hints = true;
  return o;
}

/// A scripted stream that parks submissions, overflows the retry queue,
/// and walks the overload state machine normal -> degraded -> shedding
/// and back to normal, with answered protocol errors along the way.
std::vector<std::string> overload_script() {
  std::vector<std::string> script;
  const auto sub = [&](int id, double at, double deadline,
                       const std::string& tree) {
    script.push_back("sub id=" + std::to_string(id) +
                     " at=" + std::to_string(at) +
                     " deadline=" + std::to_string(deadline) + " tree=" + tree);
  };
  const auto done = [&](const std::string& rest) {
    script.push_back("done " + rest);
  };
  int id = 0;
  double at = 0.0;
  // Light load: everything admits, completions retire it.
  for (int i = 0; i < 12; ++i) {
    ++id;
    at += 0.5;
    sub(id, at, 6.0, "[A@" + std::to_string(id % 3) + ":0.5/0.5 || B@" +
                         std::to_string((id + 1) % 3) + ":0.75/0.75]");
    if (id > 3) done("id=" + std::to_string(id - 3));
  }
  // Heavy tight submissions against the warm ledgers: infeasible now, so
  // four park and the queue-full rest get backpressure.  Completions free
  // node 0 for the head; the clock step expires the others' slack.
  for (int i = 0; i < 6; ++i) {
    ++id;
    sub(id, at, 2.6 + 0.1 * i, "A@0:2.5/2.5");
  }
  done("id=11");
  done("id=12");
  at += 0.5;
  done("id=10 at=" + std::to_string(at));
  // A burst with few completions: ledgers fill and pressure climbs
  // through degraded into shedding; every fifth submission is tight.
  for (int i = 0; i < 40; ++i) {
    ++id;
    at += 0.1;
    if (i % 5 == 3) {
      sub(id, at, 1.8, "[A@" + std::to_string(id % 3) + ":1.1/1.1 || B@" +
                           std::to_string((id + 1) % 3) + ":0.8/0.8]");
      continue;
    }
    sub(id, at, 9.0 + (i % 4),
        "[A@" + std::to_string(id % 3) + ":0.9/0.9 || B@" +
            std::to_string((id + 1) % 3) + ":0.6/0.6 || C@" +
            std::to_string((id + 2) % 3) + ":0.7/0.7]");
    if (i % 9 == 4) done("id=" + std::to_string(id - 1) + " at=" +
                         std::to_string(at) + " leaf=0");
  }
  // Answered errors, and a resubmission of the last (shed) id.
  script.push_back("done id=99999");
  script.push_back("sub id=" + std::to_string(id) + " at=" +
                   std::to_string(at) + " deadline=4 tree=a@0:1/1");
  script.push_back("frob id=1");
  script.push_back("sub id=777777 at=" + std::to_string(at) +
                   " deadline=4 tree=[a@0:1/1 ||");
  script.push_back("sub id=777778 at=0 deadline=4 tree=a@0:1/1");
  // Lull: the clock jumps, completions drain, pressure decays to normal.
  for (int i = 0; i < 30; ++i) {
    ++id;
    at += 2.0;
    if (i > 0) {
      done("id=" + std::to_string(id - 1) + " at=" + std::to_string(at));
    }
    sub(id, at, 8.0, "[A@" + std::to_string(id % 3) + ":0.3/0.3 || B@" +
                         std::to_string((id + 2) % 3) + ":0.4/0.4]");
  }
  return script;
}

TEST(Serve, OneDecisionPerSubmissionPlusSummary) {
  const std::string input =
      "# comment and blank lines are ignored\n"
      "\n"
      "sub id=1 at=0 deadline=5 tree=a@0:2/2\n"
      "sub id=2 at=1 deadline=5 tree=b@1:2/2\n"
      "done id=1 at=3\n"
      "sub id=3 at=4 deadline=5 tree=a@0:2/2\n";
  const auto [r, out] = run(input, options());
  EXPECT_EQ(r.submissions, 3u);
  EXPECT_EQ(r.decisions, 3u);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_EQ(count_substr(out, "\"schema\":\"sda.admit.v1\""), 3u);
  EXPECT_EQ(count_substr(out, "\"schema\":\"sda.serve.summary.v1\""), 1u);
  EXPECT_EQ(count_substr(out, "\"decision\":\"admit\""), 3u);
  // Decisions carry the per-leaf plan.
  EXPECT_EQ(count_substr(out, "\"leaves\":["), 3u);
}

TEST(Serve, RerunsAreByteIdentical) {
  const std::string input =
      "sub id=1 at=0 deadline=4 tree=[a@0:1/1 || b@1:2/2]\n"
      "sub id=2 at=0.5 deadline=4 tree=a@0:3/3\n"
      "done id=1 at=2\n"
      "sub id=3 at=2.5 deadline=4 tree=a@0:3/3\n";
  const auto [r1, out1] = run(input, options());
  const auto [r2, out2] = run(input, options());
  EXPECT_EQ(out1, out2);
  EXPECT_EQ(r1.decisions, r2.decisions);
}

TEST(Serve, GoldenOverloadScriptPinsRepliesAndState) {
  // Literals computed on the plan-cache build, with its "cache_hit"
  // member stripped from each decision: deleting the cache must leave
  // every other reply byte and the recoverable state untouched.
  exp::ServeSession session(overload_options());
  std::vector<exp::ServeSession::Reply> replies;
  for (const std::string& line : overload_script()) {
    session.handle_line(line, replies);
  }
  const std::uint64_t fingerprint = session.state_fingerprint();
  session.finish(replies);

  std::uint64_t digest = util::kFnvOffsetBasis;
  std::size_t decisions = 0;
  std::size_t errors = 0;
  for (const exp::ServeSession::Reply& r : replies) {
    if (r.kind == exp::ServeSession::ReplyKind::kSummary) continue;
    util::fnv1a_mix(digest, r.line.data(), r.line.size());
    ++(r.kind == exp::ServeSession::ReplyKind::kDecision ? decisions
                                                           : errors);
  }
  EXPECT_EQ(fingerprint, 0x2b700eee525a0ccdULL);
  EXPECT_EQ(digest, 0x8201818b86234a3fULL);
  EXPECT_EQ(decisions, 89u);
  EXPECT_EQ(errors, 6u);

  // The script really exercises what it claims to.
  const core::AdmissionStats& st = session.result().stats;
  EXPECT_EQ(st.queued, 7u);
  EXPECT_EQ(st.queue_high_water, 4u);
  EXPECT_EQ(st.backpressure, 2u);
  EXPECT_EQ(st.to_degraded, 3u);
  EXPECT_EQ(st.to_shedding, 2u);
  EXPECT_EQ(st.to_normal, 1u);
  EXPECT_EQ(st.admitted, 48u);
  EXPECT_EQ(st.shed, 39u);
}

TEST(Serve, DoneRetiresAndPumpsTheQueue) {
  // id=2 cannot fit next to id=1; it parks until done id=1 frees the
  // node, then resolves with an admit carrying id=2.
  const std::string input =
      "sub id=1 at=0 deadline=5 tree=a@0:4/4\n"
      "sub id=2 at=1 deadline=9 tree=a@0:4/4\n"
      "done id=1 at=2\n";
  const auto [r, out] = run(input, options());
  EXPECT_EQ(r.submissions, 2u);
  EXPECT_EQ(r.decisions, 2u);
  EXPECT_EQ(r.stats.queued, 1u);
  EXPECT_EQ(r.stats.admitted, 2u);
  const std::vector<std::string> l = lines(out);
  ASSERT_EQ(l.size(), 3u);  // two decisions + summary
  EXPECT_NE(l[0].find("\"id\":1"), std::string::npos);
  EXPECT_NE(l[1].find("\"id\":2"), std::string::npos);
  EXPECT_NE(l[1].find("\"decision\":\"admit\""), std::string::npos);
}

TEST(Serve, QueueOverflowYieldsBackpressureAndEofFlushes) {
  // Queue capacity 1: the third infeasible sub gets an immediate
  // backpressure decision; the parked one is resolved (shed) at EOF.
  const std::string input =
      "sub id=1 at=0 deadline=5 tree=a@0:4/4\n"
      "sub id=2 at=0 deadline=5 tree=a@0:4/4\n"
      "sub id=3 at=0 deadline=5 tree=a@0:4/4\n";
  const auto [r, out] = run(input, options());
  EXPECT_EQ(r.submissions, 3u);
  EXPECT_EQ(r.decisions, 3u);
  EXPECT_EQ(r.stats.backpressure, 1u);
  EXPECT_EQ(count_substr(out, "\"decision\":\"backpressure\""), 1u);
  EXPECT_EQ(count_substr(out, "\"reason\":\"flushed\""), 1u);
}

TEST(Serve, ProtocolErrorsGetErrorRecordsAndKeepTheStreamAlive) {
  const std::string input =
      "frobnicate id=1\n"
      "sub id=2 at=0\n"
      "sub id=3 at=0 deadline=-1 tree=a@0:1/1\n"
      "sub id=4 at=0 deadline=5 tree=((((\n"
      "sub id=5 at=0 deadline=5 tree=a@0:1/1\n"
      "sub id=6 at=-1 deadline=5 tree=a@0:1/1\n";
  const auto [r, out] = run(input, options());
  EXPECT_EQ(r.errors, 5u);
  EXPECT_EQ(count_substr(out, "\"schema\":\"sda.error.v1\""), 5u);
  // Each carries a machine-readable code alongside the reason.
  EXPECT_EQ(count_substr(out, "\"code\":\"verb\""), 1u);
  EXPECT_EQ(count_substr(out, "\"code\":\"field\""), 2u);
  EXPECT_EQ(count_substr(out, "\"code\":\"tree\""), 1u);
  EXPECT_EQ(count_substr(out, "\"code\":\"clock\""), 1u);
  // The one well-formed submission still got a real decision.
  EXPECT_EQ(count_substr(out, "\"decision\":\"admit\""), 1u);
  EXPECT_NE(out.find("\"id\":5"), std::string::npos);
}

TEST(Serve, MonotonicStreamClockIsEnforced) {
  const std::string input =
      "sub id=1 at=5 deadline=5 tree=a@0:1/1\n"
      "sub id=2 at=3 deadline=5 tree=a@0:1/1\n";
  const auto [r, out] = run(input, options());
  EXPECT_EQ(r.errors, 1u);
  EXPECT_NE(out.find("time went backwards"), std::string::npos);
}

TEST(Serve, TimingSummaryReportsLatencyQuantiles) {
  exp::ServeOptions o = options();
  o.measure_latency = true;
  const auto [r, out] = run("sub id=1 at=0 deadline=5 tree=a@0:1/1\n", o);
  EXPECT_EQ(r.decisions, 1u);
  EXPECT_NE(out.find("\"assign_latency_ns\""), std::string::npos);
  EXPECT_NE(out.find("\"admissions_per_sec\""), std::string::npos);
}

TEST(Serve, DoneForUnknownOrRetiredIdIsAnAnsweredError) {
  // Never submitted, and submitted-then-retired: both get a structured
  // unknown-id error instead of a silent no-op, and the summary counts
  // them.
  const std::string input =
      "done id=99 at=0\n"
      "sub id=1 at=1 deadline=5 tree=a@0:1/1\n"
      "done id=1 at=2\n"
      "done id=1 at=3\n";
  const auto [r, out] = run(input, options());
  EXPECT_EQ(r.errors, 2u);
  EXPECT_EQ(count_substr(out, "\"code\":\"unknown-id\""), 2u);
  EXPECT_NE(out.find("\"id\":99"), std::string::npos);
  EXPECT_NE(out.find("already-retired"), std::string::npos);
  EXPECT_NE(out.find("\"errors\":2"), std::string::npos);
}

TEST(Serve, DuplicateInFlightIdIsRejected) {
  const std::string input =
      "sub id=1 at=0 deadline=5 tree=a@0:1/1\n"
      "sub id=1 at=1 deadline=5 tree=a@0:1/1\n"
      "done id=1 at=2\n"
      "sub id=1 at=3 deadline=5 tree=a@0:1/1\n";  // retired: reusable
  const auto [r, out] = run(input, options());
  EXPECT_EQ(r.errors, 1u);
  EXPECT_EQ(count_substr(out, "\"code\":\"duplicate-id\""), 1u);
  EXPECT_EQ(r.submissions, 2u);
  EXPECT_EQ(r.decisions, 2u);
}

TEST(Serve, ErroneousLinesDoNotAdvanceTheClock) {
  // A malformed line carrying a huge at= must leave the stream clock
  // alone — otherwise garbage could wedge every later submission behind
  // a clock it never legitimately reached (and the journal, which skips
  // error lines, could not reproduce the state).
  const std::string input =
      "sub id=1 at=1000000 deadline=bogus tree=a@0:1/1\n"
      "sub id=2 at=1 deadline=5 tree=a@0:1/1\n";
  const auto [r, out] = run(input, options());
  EXPECT_EQ(r.errors, 1u);
  EXPECT_EQ(r.decisions, 1u);
  EXPECT_EQ(count_substr(out, "\"code\":\"clock\""), 0u);
  EXPECT_NE(out.find("\"id\":2"), std::string::npos);
}

TEST(Serve, OversizedAndNulLinesAreAnsweredNotFatal) {
  exp::ServeOptions o = options();
  o.limits.max_line_bytes = 128;
  std::string input = "sub id=1 at=0 deadline=5 tree=";
  input.append(256, 'a');
  input += "\n";
  input += std::string("sub id=2\0at=0\n", 14);
  input += "sub id=3 at=0 deadline=5 tree=a@0:1/1\n";
  const auto [r, out] = run(input, o);
  EXPECT_EQ(r.errors, 2u);
  EXPECT_EQ(count_substr(out, "\"code\":\"limit\""), 1u);
  EXPECT_EQ(count_substr(out, "\"reason\":\"embedded NUL byte\""), 1u);
  // The stream survives and the clean submission decides.
  EXPECT_EQ(r.decisions, 1u);
  EXPECT_NE(out.find("\"id\":3"), std::string::npos);
}

TEST(Serve, PartialDoneRetiresOneLeafReservation) {
  // Two-leaf run; retiring one leaf must free enough ledger room for a
  // same-node submission that a whole-run reservation would block.
  exp::ServeOptions o = options();
  o.admission.node_count = 2;
  const std::string input =
      "sub id=1 at=0 deadline=8 tree=[a@0:4/4 || b@1:4/4]\n"
      "done id=1 at=1 leaf=0\n"
      "sub id=2 at=2 deadline=8 tree=a@0:4/4\n";
  const auto [r, out] = run(input, o);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_EQ(r.decisions, 2u);
  // The run stays live after the partial done: a whole-run done works.
  const auto [r2, out2] = run(input + "done id=1 at=3\n", o);
  EXPECT_EQ(r2.errors, 0u);
}

TEST(Serve, RetryHintsAnnotateShedAndBackpressure) {
  exp::ServeOptions o = options();
  o.retry_hints = true;
  // Queue capacity 1 and an overloaded node: the third submission gets
  // backpressure, which must now carry a retry_after hint.
  const std::string input =
      "sub id=1 at=0 deadline=5 tree=a@0:4/4\n"
      "sub id=2 at=0 deadline=5 tree=a@0:4/4\n"
      "sub id=3 at=0 deadline=5 tree=a@0:4/4\n";
  const auto [r, out] = run(input, o);
  EXPECT_EQ(count_substr(out, "\"decision\":\"backpressure\""), 1u);
  EXPECT_GE(count_substr(out, "\"retry_after\":"), 1u);
  // Admits never carry the hint.
  for (const std::string& line : lines(out)) {
    if (line.find("\"decision\":\"admit\"") != std::string::npos) {
      EXPECT_EQ(line.find("retry_after"), std::string::npos);
    }
  }
  // Hints are deterministic: same stream, same bytes.
  const auto [r2, out2] = run(input, o);
  EXPECT_EQ(out, out2);
}

TEST(Serve, JournalReplayReproducesTheFingerprint) {
  const std::string path =
      "sda_test_serve_journal_" + std::to_string(::getpid()) + ".wal";
  std::remove(path.c_str());
  const std::string input =
      "sub id=1 at=0 deadline=5 tree=a@0:2/2\n"
      "sub id=2 at=1 deadline=5 tree=b@1:2/2\n"
      "bogus line\n"
      "done id=1 at=2\n"
      "sub id=3 at=3 deadline=5 tree=a@0:2/2\n";
  exp::ServeOptions o = options();
  o.journal_path = path;

  // First process: run the stream, snapshot the fingerprint pre-drain.
  exp::ServeSession first(o);
  std::string diag;
  ASSERT_TRUE(first.open_journal(&diag)) << diag;
  std::vector<exp::ServeSession::Reply> replies;
  std::istringstream in(input);
  std::string text;
  while (std::getline(in, text)) first.handle_line(text, replies);
  const std::uint64_t fp = first.state_fingerprint();
  first.finish(replies);

  // Second process: replay-only recovery must land on the same
  // fingerprint without seeing the original stream.
  exp::ServeOptions replay = o;
  replay.journal_replay_only = true;
  exp::ServeSession second(replay);
  ASSERT_TRUE(second.open_journal(&diag)) << diag;
  EXPECT_EQ(second.state_fingerprint(), fp);
  EXPECT_FALSE(second.replay_truncated());
  // Only state-changing lines were journaled: 3 subs + 1 done, not the
  // bogus line (and the checkpoint is skipped on replay).
  EXPECT_EQ(second.result().replayed, 4u);
  EXPECT_EQ(second.result().errors, 0u);
  std::remove(path.c_str());
}

TEST(Serve, JournalSummaryBlockReportsRecordsAndFingerprint) {
  const std::string path =
      "sda_test_serve_journal2_" + std::to_string(::getpid()) + ".wal";
  std::remove(path.c_str());
  exp::ServeOptions o = options();
  o.journal_path = path;
  std::istringstream in("sub id=1 at=0 deadline=5 tree=a@0:1/1\n");
  std::ostringstream out;
  exp::serve_stream(in, out, o);
  EXPECT_NE(out.str().find("\"journal\":{\"records\":"), std::string::npos);
  EXPECT_NE(out.str().find("\"fingerprint\":\""), std::string::npos);
  std::remove(path.c_str());
}

/// Input that arrives one line at a time, like a pipe whose writer
/// waits for each reply: nothing more is buffered after every line.
class LineAtATime : public std::streambuf {
 public:
  explicit LineAtATime(std::vector<std::string> lines)
      : lines_(std::move(lines)) {}

 protected:
  int_type underflow() override {
    if (next_ == lines_.size()) return traits_type::eof();
    current_ = lines_[next_++] + "\n";
    setg(current_.data(), current_.data(), current_.data() + current_.size());
    return traits_type::to_int_type(current_[0]);
  }

 private:
  std::vector<std::string> lines_;
  std::size_t next_ = 0;
  std::string current_;
};

/// Output that, at every decision it receives, checks that the journal
/// file already holds the record of the sub the decision answers.
class DurabilityCheck : public std::streambuf {
 public:
  explicit DurabilityCheck(std::string journal) : journal_(std::move(journal)) {}

  std::size_t decisions = 0;
  std::vector<std::string> not_durable;  ///< decisions seen too early

 protected:
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) on_byte(traits_type::to_char_type(c));
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) on_byte(s[i]);
    return n;
  }

 private:
  void on_byte(char c) {
    if (c != '\n') {
      line_.push_back(c);
      return;
    }
    const std::string prefix = "{\"schema\":\"sda.admit.v1\",\"id\":";
    if (line_.rfind(prefix, 0) == 0) {
      ++decisions;
      const std::size_t first = prefix.size();
      const std::string id =
          line_.substr(first, line_.find(',', first) - first);
      if (!journaled(id)) {
        // The file may have grown since the last read.
        durable_.clear();
        for (const exp::JournalRecord& r : exp::read_journal(journal_).records) {
          if (r.payload.rfind("sub id=", 0) != 0) continue;
          durable_.insert(r.payload.substr(7, r.payload.find(' ', 7) - 7));
        }
        if (!journaled(id)) not_durable.push_back(id);
      }
    }
    line_.clear();
  }
  bool journaled(const std::string& id) const {
    return durable_.count(id) != 0;
  }

  std::string journal_;
  std::string line_;
  std::set<std::string> durable_;  ///< sub ids in the last journal read
};

TEST(Serve, EveryDecisionIsDurableBeforeItIsWritten) {
  // Default flush settings.  Two inputs: a stream with everything
  // buffered (replies held up to the journal_flush_every cap) and one
  // that delivers a line at a time (replies go out after every line).
  const std::string path =
      "sda_test_serve_durable_" + std::to_string(::getpid()) + ".wal";
  exp::ServeOptions o = options();
  o.journal_path = path;
  std::vector<std::string> input;
  for (int id = 1; id <= 1500; ++id) {
    input.push_back("sub id=" + std::to_string(id) + " at=" +
                    std::to_string(id) + " deadline=5 tree=a@0:1/1");
    input.push_back("done id=" + std::to_string(id));
  }
  std::string text;
  for (const std::string& line : input) text += line + "\n";

  std::istringstream buffered(text);
  LineAtATime trickle_buf(std::vector<std::string>(input.begin(),
                                                   input.begin() + 40));
  std::istream trickle(&trickle_buf);
  for (std::istream* in : {static_cast<std::istream*>(&buffered), &trickle}) {
    std::remove(path.c_str());
    DurabilityCheck check(path);
    std::ostream out(&check);
    const exp::ServeResult r = exp::serve_stream(*in, out, o);
    EXPECT_EQ(check.decisions, r.decisions);
    EXPECT_GT(check.decisions, 0u);
    EXPECT_TRUE(check.not_durable.empty())
        << check.not_durable.size() << " decisions written before their "
        << "record was durable, first id " << check.not_durable.front();
  }
  std::remove(path.c_str());
}

}  // namespace
