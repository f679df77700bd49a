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
// Each event-loop turn is one group commit:
//   1. read at most 64 KiB from every readable connection (poll is
//      level-triggered, so the rest comes back next turn);
//   2. feed the complete lines to the session, queueing replies in the
//      outboxes of the connections they route to;
//   3. ServeSession::commit() — one fsync covers every line of the turn;
//   4. one write() per connection with pending reply bytes.
// A reply therefore never leaves before its journal record is durable,
// and a burst of lines costs one fsync and one write, not one each.
// Accepted TCP sockets set TCP_NODELAY: a turn's reply bytes are one
// write already, and Nagle would hold a second turn's write until the
// peer's delayed ACK (up to 40 ms).
//
// Robustness contract, enforced per connection:
//   * bounded read buffering — LineSplitter truncates oversized lines,
//     so a client without newlines cannot grow memory;
//   * bounded write buffering — a client whose kernel buffer refuses
//     more than max_write_buffer of a turn's reply bytes is evicted
//     (slow-client backpressure) rather than ballooning the server;
//   * idle and partial-line (request) timeouts evict dead peers.
//
// Shutdown: request_stop() is async-signal-safe (one write to a
// self-pipe).  The loop then drains: finishes the turn in progress,
// stops accepting, journals a checkpoint, emits the summary record on
// the control stream, and flushes write buffers briefly.  kill -9 is
// the *other* supported shutdown: the journal replays (see journal.hpp).
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
  /// Eviction threshold: reply bytes the kernel refused at the end of
  /// a turn.  A turn may queue more; only what cannot be written counts.
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
/// arms write interest only while bytes are pending, and drops read
/// interest once a peer has half-closed, so level-triggered is cheap).
class Poller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool error = false;
  };

  /// Watches @p fd for output when @p want_write and for input when
  /// @p want_read; watching an fd again replaces its interest.  Hangups
  /// and errors are reported either way.
  void watch(int fd, bool want_write, bool want_read = true) {
    interest_[fd] = Interest{want_read, want_write};
  }
  void remove(int fd) { interest_.erase(fd); }
  /// Blocks up to @p timeout_ms; fills @p events with ready fds.
  /// Returns false on an unrecoverable poll error.
  bool wait(int timeout_ms, std::vector<Event>& events);

 private:
  struct Interest {
    bool read = true;
    bool write = false;
  };
  std::map<int, Interest> interest_;
};

/// One accepted client.  Connections are only closed between the
/// phases of a turn, never from inside a LineSplitter callback: the
/// splitter lives here, and its feed() loop may still be running.
struct Connection {
  int fd = -1;
  LineSplitter splitter{0};
  std::string outbox;          ///< reply bytes not yet written
  std::uint64_t last_activity_ms = 0;
  std::uint64_t partial_since_ms = 0;  ///< first byte of an unfinished line
  bool draining = false;  ///< half-closed or shutting down: flush, then close
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
  void feed_line(Connection& conn, std::string_view line, bool oversized)
      SDA_REQUIRES(loop_);
  void route_replies(Connection* origin,
                     const std::vector<ServeSession::Reply>& replies)
      SDA_REQUIRES(loop_);
  /// The turn's write phase (after the commit): one write() per
  /// connection with pending bytes, then evicts slow clients, closes
  /// draining connections whose outbox emptied, and re-arms interest.
  void flush_outboxes() SDA_REQUIRES(loop_);
  void close_connection(int fd) SDA_REQUIRES(loop_);
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
  std::vector<char> read_buf_
      SDA_GUARDED_BY(loop_);  ///< one turn's read from one connection
  ServeNetStats stats_ SDA_GUARDED_BY(loop_);
};

}  // namespace sda::exp::net
