// The socket transport for the admission front door: a single-threaded
// non-blocking poll(2) event loop that drives one shared ServeSession.
//
// Service model: any number of clients connect and write protocol
// lines; every decision is routed back to the connection that
// submitted the run — including decisions that resolve later, when a
// *different* client's `done` frees the capacity a parked submission
// was waiting for.  Replies for a client that has since disconnected
// are counted (`orphaned_replies`) and dropped; the admission state
// they changed stands, exactly as it would have in-stream.
//
// Robustness contract, enforced per connection:
//   * bounded read buffering — LineSplitter truncates oversized lines,
//     so a client without newlines cannot grow memory;
//   * bounded write buffering — a client that stops reading while
//     decisions accumulate is evicted (slow-client backpressure)
//     rather than ballooning the server;
//   * idle and partial-line (request) timeouts evict dead peers.
//
// Shutdown: request_stop() is async-signal-safe (one write to a
// self-pipe).  The loop then drains: stops accepting, processes the
// complete lines already received, flushes write buffers briefly,
// journals a checkpoint, and emits the summary record on the control
// stream.  kill -9 is the *other* supported shutdown: the journal
// replays (see journal.hpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "src/exp/protocol.hpp"
#include "src/exp/serve.hpp"
#include "src/util/mutex.hpp"
#include "src/util/thread_annotations.hpp"

namespace sda::exp::net {

/// A parsed --listen address: "host:port" (TCP; port 0 = ephemeral,
/// the bound port is reported in the sda.listen.v1 banner) or
/// "unix:/path" (stream socket; the path is unlinked on close).
struct ListenSpec {
  enum class Kind { kTcp, kUnix };
  Kind kind = Kind::kTcp;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string path;  ///< unix-domain socket path
};

/// Parses @p text into @p spec.  Returns false with a message in
/// @p error on malformed input.
bool parse_listen_spec(const std::string& text, ListenSpec* spec,
                       std::string* error);

struct ServerOptions {
  ListenSpec listen;
  std::size_t max_connections = 64;
  /// Per-connection line-assembly bound (LineSplitter truncation).
  std::size_t max_line_bytes = 64 * 1024;
  /// Eviction threshold for a connection's pending outbound bytes.
  std::size_t max_write_buffer = 1 << 20;
  int idle_timeout_ms = 30'000;    ///< no bytes at all from the peer
  int request_timeout_ms = 5'000;  ///< an unfinished line this old
  int tick_ms = 50;                ///< event-loop timer granularity
  int drain_timeout_ms = 1'000;    ///< write-flush budget at shutdown
  /// SO_SNDBUF for the listener (inherited by accepted sockets);
  /// 0 = kernel default.  Bounds per-client kernel-side buffering so
  /// slow-client backpressure trips on the user-space outbox instead
  /// of hiding inside a large socket buffer.
  int sndbuf_bytes = 0;
};

/// Minimal readiness shim over poll(2).  Level-triggered (the loop
/// re-arms write interest only while bytes are pending, so
/// level-triggered is cheap).
class Poller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool error = false;
  };

  /// Watches @p fd for input, and for output too when @p want_write;
  /// watching an fd again replaces its interest.
  void watch(int fd, bool want_write) { interest_[fd] = want_write; }
  void remove(int fd) { interest_.erase(fd); }
  /// Blocks up to @p timeout_ms; fills @p events with ready fds.
  /// Returns false on an unrecoverable poll error.
  bool wait(int timeout_ms, std::vector<Event>& events);

 private:
  std::map<int, bool> interest_;  ///< fd -> want_write
};

/// One accepted client.
struct Connection {
  int fd = -1;
  LineSplitter splitter{0};
  std::string outbox;          ///< unsent reply bytes
  std::size_t sent = 0;        ///< outbox prefix already written
  std::uint64_t last_activity_ms = 0;
  std::uint64_t partial_since_ms = 0;  ///< first byte of an unfinished line
  bool draining = false;       ///< flush outbox, then close
  /// Evicted while reply routing ran inside this (or another)
  /// connection's LineSplitter callback stack.  Destroying a Connection
  /// there would free the splitter whose feed() loop is still running,
  /// so eviction only marks; reap_doomed() closes once the stack
  /// unwinds.  A doomed connection accepts no further lines or replies.
  bool doomed = false;
};

class ServeServer {
 public:
  ServeServer(ServeSession& session, const ServerOptions& options);
  ~ServeServer();
  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Binds and listens.  After success bound_port() reports the real
  /// port (meaningful with port 0).
  bool start(std::string* error);

  /// The sda.listen.v1 banner line (includes the bound address) that
  /// sda_run prints on stdout so scripts can discover an ephemeral
  /// port.  Valid after start().
  std::string banner() const;

  std::uint16_t bound_port() const noexcept { return bound_port_; }

  /// Runs the event loop until request_stop().  Drain output (the
  /// summary record) goes to @p out.  Returns 0 on a clean drain,
  /// 1 on an unrecoverable loop error.  Assumes the loop_ role: the
  /// calling thread becomes the event-loop owner for the duration.
  int run(std::ostream& out);

  /// Async-signal-safe stop: one byte down the self-pipe.  Safe to
  /// call from a signal handler or another thread — by annotation it
  /// cannot touch any loop_-guarded state (the compiler rejects it).
  void request_stop();

  // Read by the owning thread after run() returns (tests, drain
  // summary); no loop thread exists then to race with.
  const ServeNetStats& stats() const noexcept SDA_NO_THREAD_SAFETY_ANALYSIS {
    return stats_;
  }

 private:
  void accept_clients() SDA_REQUIRES(loop_);
  void handle_readable(Connection& conn) SDA_REQUIRES(loop_);
  void handle_writable(Connection& conn) SDA_REQUIRES(loop_);
  void feed_line(Connection& conn, std::string_view line, bool oversized)
      SDA_REQUIRES(loop_);
  void route_replies(Connection* origin,
                     const std::vector<ServeSession::Reply>& replies)
      SDA_REQUIRES(loop_);
  void send_to(Connection& conn, std::string_view bytes) SDA_REQUIRES(loop_);
  void close_connection(int fd) SDA_REQUIRES(loop_);
  /// Closes every connection marked doomed during a callback stack.
  void reap_doomed() SDA_REQUIRES(loop_);
  void enforce_timeouts(std::uint64_t now_ms) SDA_REQUIRES(loop_);
  void drain(std::ostream& out) SDA_REQUIRES(loop_);

  ServeSession& session_;
  ServerOptions options_;
  Poller poller_;
  int listen_fd_ = -1;
  int stop_read_fd_ = -1;
  int stop_write_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  /// Event-loop ownership role: the connection table and everything
  /// derived from it may only be touched from inside run()'s loop (or
  /// after it has returned).  request_stop(), the only cross-thread
  /// entry point, provably touches none of it.
  util::ThreadRole loop_;
  bool stop_requested_ SDA_GUARDED_BY(loop_) = false;
  std::map<int, Connection> connections_
      SDA_GUARDED_BY(loop_);  ///< fd -> state
  std::map<std::uint64_t, int> id_routes_
      SDA_GUARDED_BY(loop_);  ///< run id -> owning fd
  std::vector<int> doomed_fds_
      SDA_GUARDED_BY(loop_);  ///< evicted, close pending
  ServeNetStats stats_ SDA_GUARDED_BY(loop_);
};

}  // namespace sda::exp::net
