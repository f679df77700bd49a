// The socket transport: listen-spec parsing, the poll(2) Poller shim,
// and loopback end-to-end behavior of ServeServer —
// reply routing across clients, oversized-line answers, truncated final
// lines, idle eviction, orphaned replies, and the drain summary.
#include "src/exp/net.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace sda;
using exp::ServeOptions;
using exp::ServeSession;
using exp::net::ListenSpec;
using exp::net::Poller;
using exp::net::ServeServer;
using exp::net::ServerOptions;
using exp::net::parse_listen_spec;

ServeOptions serve_options() {
  ServeOptions o;
  o.admission.node_count = 2;
  o.admission.queue_capacity = 4;
  return o;
}

/// Server under test: session + server + event-loop thread.
class Loop {
 public:
  Loop(const ServeOptions& so, const ServerOptions& no)
      : session_(so), server_(session_, no) {}
  ~Loop() {
    if (thread_.joinable()) stop();
  }

  bool start() {
    std::string error;
    if (!session_.open_journal(&error)) return false;
    if (!server_.start(&error)) {
      ADD_FAILURE() << "server start failed: " << error;
      return false;
    }
    thread_ = std::thread([this] { server_.run(out_); });
    return true;
  }

  void stop() {
    server_.request_stop();
    thread_.join();
  }

  ServeServer& server() { return server_; }
  ServeSession& session() { return session_; }
  std::string summary() const { return out_.str(); }

 private:
  ServeSession session_;
  ServeServer server_;
  std::thread thread_;
  std::ostringstream out_;
};

/// Blocking loopback client with a receive timeout and line framing.
class Client {
 public:
  explicit Client(std::uint16_t port, int rcvbuf = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    if (rcvbuf > 0) {
      // Must be set before connect() to bound the advertised window.
      if (::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                       sizeof rcvbuf) != 0) {
        /* larger window; the slow-client test gets less deterministic */
      }
    }
    timeval tv{};
    tv.tv_sec = 10;
    if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) != 0) {
      /* reads may block longer; the assertions still hold */
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1) return;
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  }
  explicit Client(const std::string& unix_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, unix_path.c_str(), sizeof(addr.sun_path) - 1);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  }
  ~Client() {
    if (fd_ >= 0) {
      if (::close(fd_) != 0) { /* test teardown */ }
    }
  }
  bool connected() const { return connected_; }

  bool send_raw(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::write(fd_, bytes.data() + off, bytes.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }
  bool send_line(const std::string& line) { return send_raw(line + "\n"); }

  /// One framed reply line, or "" on timeout/EOF.
  std::string read_line() {
    for (;;) {
      const std::size_t pos = buffer_.find('\n');
      if (pos != std::string::npos) {
        const std::string line = buffer_.substr(0, pos);
        buffer_.erase(0, pos + 1);
        return line;
      }
      char buf[4096];
      const ssize_t n = ::read(fd_, buf, sizeof buf);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return "";
      }
      buffer_.append(buf, static_cast<std::size_t>(n));
    }
  }

  /// True once the peer has closed (EOF), draining any leftover bytes.
  bool read_eof() {
    for (;;) {
      char buf[4096];
      const ssize_t n = ::read(fd_, buf, sizeof buf);
      if (n == 0) return true;
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;  // timeout or error, not EOF
      }
    }
  }

  void shutdown_write() {
    if (::shutdown(fd_, SHUT_WR) != 0) { /* peer may have closed first */ }
  }

  /// Blocks until the peer hangs up (FIN or RST) WITHOUT reading any
  /// pending replies — backpressure tests need the pipe to stay full.
  bool wait_peer_close(int timeout_ms = 10'000) {
    pollfd p{};
    p.fd = fd_;
    p.events = POLLRDHUP;
    for (;;) {
      const int n = ::poll(&p, 1, timeout_ms);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;  // timeout or poll error
      return (p.revents & (POLLRDHUP | POLLERR | POLLHUP)) != 0;
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

ServerOptions ephemeral_tcp() {
  ServerOptions o;
  o.listen.kind = ListenSpec::Kind::kTcp;
  o.listen.host = "127.0.0.1";
  o.listen.port = 0;
  o.tick_ms = 10;
  return o;
}

// --- parse_listen_spec ----------------------------------------------------

TEST(ListenSpecParse, TcpAndUnixForms) {
  ListenSpec spec;
  std::string error;
  ASSERT_TRUE(parse_listen_spec("127.0.0.1:8080", &spec, &error)) << error;
  EXPECT_EQ(spec.kind, ListenSpec::Kind::kTcp);
  EXPECT_EQ(spec.host, "127.0.0.1");
  EXPECT_EQ(spec.port, 8080);

  ASSERT_TRUE(parse_listen_spec("0.0.0.0:0", &spec, &error)) << error;
  EXPECT_EQ(spec.port, 0);  // ephemeral

  ASSERT_TRUE(parse_listen_spec("unix:/tmp/sda.sock", &spec, &error)) << error;
  EXPECT_EQ(spec.kind, ListenSpec::Kind::kUnix);
  EXPECT_EQ(spec.path, "/tmp/sda.sock");
}

TEST(ListenSpecParse, MalformedSpecsAreRejectedWithAMessage) {
  ListenSpec spec;
  for (const char* bad :
       {"", "nohostport", ":1234", "host:", "host:abc", "host:99999",
        "host:12 ", "unix:"}) {
    std::string error;
    EXPECT_FALSE(parse_listen_spec(bad, &spec, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  std::string error;
  EXPECT_FALSE(parse_listen_spec("unix:/" + std::string(200, 'p'), &spec,
                                 &error));
}

// --- Poller ---------------------------------------------------------------

TEST(PollerShim, ReportsReadinessOnAPipe) {
  Poller poller;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  poller.watch(fds[0], /*want_write=*/false);
  std::vector<Poller::Event> events;
  ASSERT_TRUE(poller.wait(0, events));
  EXPECT_TRUE(events.empty());  // nothing to read yet
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  ASSERT_TRUE(poller.wait(1000, events));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].fd, fds[0]);
  EXPECT_TRUE(events[0].readable);
  poller.remove(fds[0]);
  if (::close(fds[0]) != 0 || ::close(fds[1]) != 0) { /* teardown */ }
}

TEST(PollerShim, WatchReplacesInterest) {
  // Write interest is armed only while replies are pending: re-watching
  // an fd must replace its interest, and remove() must silence it.
  Poller poller;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::vector<Poller::Event> events;
  poller.watch(fds[1], /*want_write=*/true);
  ASSERT_TRUE(poller.wait(1000, events));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].fd, fds[1]);
  EXPECT_TRUE(events[0].writable);
  poller.watch(fds[1], /*want_write=*/false);
  ASSERT_TRUE(poller.wait(0, events));
  EXPECT_TRUE(events.empty());  // an empty pipe's write end never reads
  poller.watch(fds[1], /*want_write=*/true);
  poller.remove(fds[1]);
  ASSERT_TRUE(poller.wait(0, events));
  EXPECT_TRUE(events.empty());
  if (::close(fds[0]) != 0 || ::close(fds[1]) != 0) { /* teardown */ }
}

// --- ServeServer end to end -----------------------------------------------

TEST(ServeServerLoop, SubmitDecideDrainOverTcp) {
  Loop loop(serve_options(), ephemeral_tcp());
  ASSERT_TRUE(loop.start());
  ASSERT_NE(loop.server().bound_port(), 0);
  const std::string banner = loop.server().banner();
  EXPECT_NE(banner.find("\"schema\":\"sda.listen.v1\""), std::string::npos);
  EXPECT_NE(banner.find("\"transport\":\"tcp\""), std::string::npos);
  EXPECT_NE(banner.find("\"backend\":\"poll\""), std::string::npos);

  Client client(loop.server().bound_port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_line("sub id=1 at=0 deadline=5 tree=a@0:1/1"));
  const std::string decision = client.read_line();
  EXPECT_NE(decision.find("\"schema\":\"sda.admit.v1\""), std::string::npos);
  EXPECT_NE(decision.find("\"id\":1"), std::string::npos);

  // A done for an unknown id is answered on the same connection.
  ASSERT_TRUE(client.send_line("done id=77 at=1"));
  const std::string error = client.read_line();
  EXPECT_NE(error.find("\"schema\":\"sda.error.v1\""), std::string::npos);
  EXPECT_NE(error.find("\"code\":\"unknown-id\""), std::string::npos);

  loop.stop();
  const std::string summary = loop.summary();
  EXPECT_NE(summary.find("\"schema\":\"sda.serve.summary.v1\""),
            std::string::npos);
  EXPECT_NE(summary.find("\"net\":{\"accepted\":1"), std::string::npos);
  EXPECT_EQ(loop.server().stats().accepted, 1u);
  EXPECT_EQ(loop.server().stats().lines, 2u);
}

TEST(ServeServerLoop, DecisionsRouteToTheSubmittingClient) {
  // Client B's submission parks behind client A's run; A's `done` frees
  // the capacity, and the resolved decision must land on B's socket.
  Loop loop(serve_options(), ephemeral_tcp());
  ASSERT_TRUE(loop.start());
  Client a(loop.server().bound_port());
  Client b(loop.server().bound_port());
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(b.connected());

  ASSERT_TRUE(a.send_line("sub id=1 at=0 deadline=5 tree=a@0:4/4"));
  EXPECT_NE(a.read_line().find("\"id\":1"), std::string::npos);
  ASSERT_TRUE(b.send_line("sub id=2 at=1 deadline=9 tree=a@0:4/4"));
  // id=2 parks, so there is no reply to wait on — but A's done must not
  // race ahead of B's sub (the shared stream clock is monotonic, and the
  // event loop serializes in arrival order per wakeup, not send order
  // across sockets).  Probe B for an immediate reply to pin the order.
  ASSERT_TRUE(b.send_line("done id=55 at=1"));
  EXPECT_NE(b.read_line().find("\"id\":55"), std::string::npos);
  ASSERT_TRUE(a.send_line("done id=1 at=2"));
  const std::string resolved = b.read_line();
  EXPECT_NE(resolved.find("\"id\":2"), std::string::npos);
  EXPECT_NE(resolved.find("\"decision\":\"admit\""), std::string::npos);
  loop.stop();
  EXPECT_EQ(loop.server().stats().orphaned_replies, 0u);
}

TEST(ServeServerLoop, DepartedClientsDecisionIsOrphanedNotMisrouted) {
  Loop loop(serve_options(), ephemeral_tcp());
  ASSERT_TRUE(loop.start());
  Client a(loop.server().bound_port());
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(a.send_line("sub id=1 at=0 deadline=5 tree=a@0:4/4"));
  EXPECT_NE(a.read_line().find("\"id\":1"), std::string::npos);
  {
    Client b(loop.server().bound_port());
    ASSERT_TRUE(b.connected());
    ASSERT_TRUE(b.send_line("sub id=2 at=1 deadline=9 tree=a@0:4/4"));
    // Confirm the sub was processed (a parked sub gets no reply, so
    // probe with a line that answers immediately) before departing.
    ASSERT_TRUE(b.send_line("done id=55 at=1"));
    EXPECT_NE(b.read_line().find("\"id\":55"), std::string::npos);
    // b departs with id=2 still parked.
  }
  // Give the event loop time to observe b's hangup and close the
  // connection before the decision resolves.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_TRUE(a.send_line("done id=1 at=2"));
  // a must NOT receive id=2's decision; the next thing a sees is its
  // own error reply to a probe line.
  ASSERT_TRUE(a.send_line("done id=99 at=3"));
  const std::string next = a.read_line();
  EXPECT_NE(next.find("\"id\":99"), std::string::npos)
      << "misrouted reply: " << next;
  loop.stop();
  EXPECT_EQ(loop.server().stats().orphaned_replies, 1u);
}

TEST(ServeServerLoop, OversizedLineIsAnsweredAndTheConnectionSurvives) {
  ServerOptions no = ephemeral_tcp();
  no.max_line_bytes = 64;
  Loop loop(serve_options(), no);
  ASSERT_TRUE(loop.start());
  Client client(loop.server().bound_port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_raw(std::string(500, 'x') + "\n"));
  const std::string error = client.read_line();
  EXPECT_NE(error.find("\"code\":\"limit\""), std::string::npos);
  EXPECT_NE(error.find("transport limit"), std::string::npos);
  // Same connection keeps working.
  ASSERT_TRUE(client.send_line("sub id=1 at=0 deadline=5 tree=a@0:1/1"));
  EXPECT_NE(client.read_line().find("\"id\":1"), std::string::npos);
  loop.stop();
}

TEST(ServeServerLoop, TruncatedFinalLineCountsLikeGetline) {
  Loop loop(serve_options(), ephemeral_tcp());
  ASSERT_TRUE(loop.start());
  Client client(loop.server().bound_port());
  ASSERT_TRUE(client.connected());
  // No trailing newline, then half-close: the splitter's finish() hands
  // the line over, the decision comes back, then the server closes.
  ASSERT_TRUE(client.send_raw("sub id=1 at=0 deadline=5 tree=a@0:1/1"));
  client.shutdown_write();
  const std::string decision = client.read_line();
  EXPECT_NE(decision.find("\"id\":1"), std::string::npos);
  EXPECT_TRUE(client.read_eof());
  loop.stop();
}

TEST(ServeServerLoop, InterleavedClientsShareOneDeterministicSession) {
  Loop loop(serve_options(), ephemeral_tcp());
  ASSERT_TRUE(loop.start());
  Client a(loop.server().bound_port());
  Client b(loop.server().bound_port());
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(b.connected());
  // Strict alternation (each step waits for its reply) pins the global
  // submission order, so the shared-session counters are exact.
  ASSERT_TRUE(a.send_line("sub id=1 at=0 deadline=5 tree=a@0:1/1"));
  EXPECT_NE(a.read_line().find("\"id\":1"), std::string::npos);
  ASSERT_TRUE(b.send_line("sub id=2 at=1 deadline=5 tree=b@1:1/1"));
  EXPECT_NE(b.read_line().find("\"id\":2"), std::string::npos);
  ASSERT_TRUE(a.send_line("sub id=2 at=2 deadline=5 tree=a@0:1/1"));
  EXPECT_NE(a.read_line().find("duplicate id"), std::string::npos);
  loop.stop();
  EXPECT_EQ(loop.session().result().submissions, 2u);
  EXPECT_EQ(loop.session().result().errors, 1u);
}

TEST(ServeServerLoop, IdleClientsAreEvicted) {
  ServerOptions no = ephemeral_tcp();
  no.idle_timeout_ms = 100;
  Loop loop(serve_options(), no);
  ASSERT_TRUE(loop.start());
  Client client(loop.server().bound_port());
  ASSERT_TRUE(client.connected());
  // Say nothing; the server hangs up on us.
  EXPECT_TRUE(client.read_eof());
  loop.stop();
  EXPECT_EQ(loop.server().stats().evicted_idle, 1u);
}

TEST(ServeServerLoop, StalledPartialLineIsEvicted) {
  ServerOptions no = ephemeral_tcp();
  no.request_timeout_ms = 100;
  Loop loop(serve_options(), no);
  ASSERT_TRUE(loop.start());
  Client client(loop.server().bound_port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_raw("sub id=1 at="));  // never finishes the line
  EXPECT_TRUE(client.read_eof());
  loop.stop();
  EXPECT_EQ(loop.server().stats().evicted_request, 1u);
}

TEST(ServeServerLoop, UnixSocketTransportWorks) {
  const std::string path = "sda_test_net.sock";
  ServerOptions no;
  no.listen.kind = ListenSpec::Kind::kUnix;
  no.listen.path = path;
  no.tick_ms = 10;
  Loop loop(serve_options(), no);
  ASSERT_TRUE(loop.start());
  EXPECT_NE(loop.server().banner().find("\"transport\":\"unix\""),
            std::string::npos);
  Client client(path);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_line("sub id=1 at=0 deadline=5 tree=a@0:1/1"));
  EXPECT_NE(client.read_line().find("\"id\":1"), std::string::npos);
  loop.stop();
}

TEST(ServeServerLoop, SlowClientIsEvictedMidPipelineWithoutCorruption) {
  // A client that pipelines thousands of lines without ever reading its
  // replies overflows the bounded write buffer *inside* a single
  // splitter feed.  Eviction must be deferred until the feed loop
  // unwinds — destroying the connection there frees the LineSplitter
  // whose feed() is still executing (ASan guards the regression) —
  // and the server must keep serving everyone else.
  ::signal(SIGPIPE, SIG_IGN);  // our own writes may race the eviction
  ServerOptions no = ephemeral_tcp();
  no.max_write_buffer = 4 * 1024;
  no.sndbuf_bytes = 4 * 1024;  // small kernel buffer: backpressure fast
  Loop loop(serve_options(), no);
  ASSERT_TRUE(loop.start());
  Client slow(loop.server().bound_port(), /*rcvbuf=*/4 * 1024);
  ASSERT_TRUE(slow.connected());
  std::string burst;
  for (int i = 0; i < 4000; ++i) burst += "done id=55 at=1\n";
  slow.send_raw(burst);  // may fail part-way once the server hangs up
  // Never read the replies — the pent-up outbox IS the trigger.  The
  // eviction surfaces as a hangup (RST, since the server discards our
  // still-queued input when it closes).
  EXPECT_TRUE(slow.wait_peer_close());
  // The server survived the mid-feed eviction and still serves.
  Client fine(loop.server().bound_port());
  ASSERT_TRUE(fine.connected());
  ASSERT_TRUE(fine.send_line("sub id=1 at=1 deadline=5 tree=a@0:1/1"));
  EXPECT_NE(fine.read_line().find("\"id\":1"), std::string::npos);
  loop.stop();
  EXPECT_EQ(loop.server().stats().evicted_slow, 1u);
}

TEST(ServeServerLoop, ReadingClientIsNotEvictedForALargeTurn) {
  // Eviction counts the reply bytes the kernel refused after a turn's
  // write, not the bytes the turn queued: one burst whose replies exceed
  // max_write_buffer is fine while the client keeps reading.
  ServerOptions no = ephemeral_tcp();
  no.max_write_buffer = 1024;
  Loop loop(serve_options(), no);
  ASSERT_TRUE(loop.start());
  Client client(loop.server().bound_port());
  ASSERT_TRUE(client.connected());
  constexpr int kLines = 40;  // ~4.6 KB of replies, one read's worth
  std::string burst;
  for (int i = 0; i < kLines; ++i) burst += "done id=55 at=1\n";
  ASSERT_TRUE(client.send_raw(burst));
  for (int i = 0; i < kLines; ++i) {
    ASSERT_NE(client.read_line().find("\"id\":55"), std::string::npos) << i;
  }
  ASSERT_TRUE(client.send_line("sub id=1 at=1 deadline=5 tree=a@0:1/1"));
  EXPECT_NE(client.read_line().find("\"id\":1"), std::string::npos);
  loop.stop();
  EXPECT_EQ(loop.server().stats().evicted_slow, 0u);
}

TEST(ServeServerLoop, HalfClosedClientGetsEveryReplyThenEofPromptly) {
  // More replies than the socket buffers hold, then a half-close before
  // reading any: the outbox empties over several turns, and the
  // connection must close as soon as it does, not at the idle timeout.
  Loop loop(serve_options(), ephemeral_tcp());
  ASSERT_TRUE(loop.start());
  Client client(loop.server().bound_port());
  ASSERT_TRUE(client.connected());
  constexpr int kLines = 3000;
  std::string burst;
  for (int i = 0; i < kLines; ++i) burst += "done id=55 at=1\n";
  ASSERT_TRUE(client.send_raw(burst));
  client.shutdown_write();
  for (int i = 0; i < kLines; ++i) {
    ASSERT_NE(client.read_line().find("\"id\":55"), std::string::npos) << i;
  }
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(client.read_eof());
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));
  loop.stop();
  EXPECT_EQ(loop.server().stats().lines, static_cast<std::uint64_t>(kLines));
}

TEST(ServeServerLoop, TwoLineRoundTripsDoNotWaitForDelayedAcks) {
  // Each round trip is one write of two lines that the server answers
  // in two turns: the first line is 64 KiB long (over the transport
  // limit, so it is answered at once), which fills the turn's read, and
  // the probe behind it is read next turn.  Two small replies in two
  // writes: with Nagle on, the second waits for this client's delayed
  // ACK of the first, about 40 ms a round trip.
  ServerOptions no = ephemeral_tcp();
  no.max_line_bytes = 1024;
  Loop loop(serve_options(), no);
  ASSERT_TRUE(loop.start());
  Client client(loop.server().bound_port());  // no socket options
  ASSERT_TRUE(client.connected());
  const std::string round_trip =
      std::string(64 * 1024 - 1, 'x') + "\ndone id=99 at=1\n";
  constexpr int kRounds = 50;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kRounds; ++i) {
    ASSERT_TRUE(client.send_raw(round_trip));
    ASSERT_NE(client.read_line().find("\"code\":\"limit\""),
              std::string::npos);
    ASSERT_NE(client.read_line().find("\"id\":99"), std::string::npos);
  }
  // Nagle-stalled, the rounds take >= 2 s; unstalled, a few ms.
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(1));
  loop.stop();
}

TEST(ServeServerLoop, EveryDecisionIsDurableBeforeTheClientSeesIt) {
  // Default flush settings: whenever the client holds a decision, the
  // journal file already holds the record of the sub it answers.
  const std::string wal =
      "sda_test_net_durable_" + std::to_string(::getpid()) + ".wal";
  std::remove(wal.c_str());
  ServeOptions so = serve_options();
  so.journal_path = wal;
  Loop loop(so, ephemeral_tcp());
  ASSERT_TRUE(loop.start());
  Client client(loop.server().bound_port());
  ASSERT_TRUE(client.connected());
  const auto sub = [](int id) {
    return "sub id=" + std::to_string(id) + " at=" + std::to_string(id) +
           " deadline=5 tree=a@0:1/1";
  };
  const auto journaled = [&](const std::string& line) {
    for (const exp::JournalRecord& r : exp::read_journal(wal).records) {
      if (r.payload == line) return true;
    }
    return false;
  };
  // One at a time, then a pipelined burst answered in one turn.
  for (int id = 1; id <= 5; ++id) {
    ASSERT_TRUE(client.send_line(sub(id)));
    ASSERT_NE(client.read_line().find("\"id\":" + std::to_string(id)),
              std::string::npos);
    EXPECT_TRUE(journaled(sub(id))) << id;
    ASSERT_TRUE(client.send_line("done id=" + std::to_string(id)));
  }
  std::string burst;
  for (int id = 6; id <= 30; ++id) {
    burst += sub(id) + "\ndone id=" + std::to_string(id) + "\n";
  }
  ASSERT_TRUE(client.send_raw(burst));
  for (int id = 6; id <= 30; ++id) {
    ASSERT_NE(client.read_line().find("\"id\":" + std::to_string(id)),
              std::string::npos);
    EXPECT_TRUE(journaled(sub(id))) << id;
  }
  loop.stop();
  std::remove(wal.c_str());
}

TEST(ServeServerLoop, ReplayRecoveredDecisionIsOrphanedNotMisrouted) {
  // Submissions recovered by journal replay have no connection route in
  // the new process.  When another client's `done` pumps such a parked
  // sub to a decision, that decision must surface as orphaned — not be
  // delivered to the client that happened to trigger the pump.
  const std::string wal =
      "sda_test_net_replay_" + std::to_string(::getpid()) + ".wal";
  std::remove(wal.c_str());
  ServeOptions so = serve_options();
  so.journal_path = wal;
  {
    // First life: id=1 admitted, id=2 parked; die without a drain.
    ServeSession session(so);
    std::string error;
    ASSERT_TRUE(session.open_journal(&error)) << error;
    std::vector<ServeSession::Reply> replies;
    session.handle_line("sub id=1 at=0 deadline=5 tree=a@0:4/4", replies);
    session.handle_line("sub id=2 at=1 deadline=9 tree=a@0:4/4", replies);
  }
  Loop loop(so, ephemeral_tcp());
  ASSERT_TRUE(loop.start());
  EXPECT_EQ(loop.session().result().replayed, 2u);
  Client c(loop.server().bound_port());
  ASSERT_TRUE(c.connected());
  ASSERT_TRUE(c.send_line("done id=1 at=2"));  // resolves parked id=2
  // c must NOT receive id=2's decision; the next thing it sees is the
  // error reply to its own probe.
  ASSERT_TRUE(c.send_line("done id=99 at=3"));
  const std::string next = c.read_line();
  EXPECT_NE(next.find("\"id\":99"), std::string::npos)
      << "misrouted replayed decision: " << next;
  loop.stop();
  EXPECT_EQ(loop.server().stats().orphaned_replies, 1u);
  std::remove(wal.c_str());
}

TEST(ServeServerLoop, RoutePeekHonorsTheSessionsProtocolLimits) {
  // A session configured with generous limits must still route
  // decisions for lines that *default* limits would reject: the
  // transport's route peek has to parse with the session's limits.
  // 100 KiB of leading zeros keeps the id's value tiny while pushing
  // the line past the default 64 KiB bound.
  ServeOptions so = serve_options();
  so.limits.max_line_bytes = 256 * 1024;
  so.limits.max_value_bytes = 200 * 1024;
  ServerOptions no = ephemeral_tcp();
  no.max_line_bytes = 256 * 1024;
  Loop loop(so, no);
  ASSERT_TRUE(loop.start());
  Client client(loop.server().bound_port());
  ASSERT_TRUE(client.connected());
  const std::string padded_id = std::string(100 * 1024, '0') + "7";
  ASSERT_TRUE(client.send_line("sub id=" + padded_id +
                               " at=0 deadline=5 tree=a@0:1/1"));
  const std::string decision = client.read_line();
  EXPECT_NE(decision.find("\"schema\":\"sda.admit.v1\""), std::string::npos)
      << decision;
  EXPECT_NE(decision.find("\"id\":7"), std::string::npos) << decision;
  loop.stop();
  EXPECT_EQ(loop.server().stats().orphaned_replies, 0u);
}

TEST(ServeServerLoop, ConnectionCapRejectsTheOverflowClient) {
  ServerOptions no = ephemeral_tcp();
  no.max_connections = 1;
  Loop loop(serve_options(), no);
  ASSERT_TRUE(loop.start());
  Client first(loop.server().bound_port());
  ASSERT_TRUE(first.connected());
  // Prove the first connection is established server-side before the
  // second arrives (ordering, not sleeping).
  ASSERT_TRUE(first.send_line("sub id=1 at=0 deadline=5 tree=a@0:1/1"));
  EXPECT_NE(first.read_line().find("\"id\":1"), std::string::npos);
  Client second(loop.server().bound_port());
  // connect() itself succeeds (listen backlog), but the server closes
  // the fd on accept: the client observes EOF.
  EXPECT_TRUE(second.read_eof());
  loop.stop();
  EXPECT_EQ(loop.server().stats().rejected_connections, 1u);
  EXPECT_EQ(loop.server().stats().accepted, 1u);
}

}  // namespace
