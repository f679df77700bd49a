#include "src/exp/net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <optional>
#include <ostream>
#include <utility>

#include "src/metrics/json_writer.hpp"

namespace sda::exp::net {

namespace {

/// Bytes one turn reads from one connection.
constexpr std::size_t kReadPerTurn = 64 * 1024;

std::uint64_t steady_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC) == 0;
}

}  // namespace

bool parse_listen_spec(const std::string& text, ListenSpec* spec,
                       std::string* error) {
  if (text.rfind("unix:", 0) == 0) {
    const std::string path = text.substr(5);
    if (path.empty()) {
      if (error != nullptr) *error = "unix: listen spec needs a path";
      return false;
    }
    if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      if (error != nullptr) *error = "unix socket path too long";
      return false;
    }
    spec->kind = ListenSpec::Kind::kUnix;
    spec->path = path;
    return true;
  }
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == text.size()) {
    if (error != nullptr) {
      *error =
          "listen spec must be host:port or unix:/path, got '" + text + "'";
    }
    return false;
  }
  const std::string_view port_text = std::string_view(text).substr(colon + 1);
  std::uint16_t port = 0;
  const char* first = port_text.data();
  const char* last = port_text.data() + port_text.size();
  const std::from_chars_result r = std::from_chars(first, last, port);
  if (r.ec != std::errc() || r.ptr != last) {
    if (error != nullptr) *error = "bad port '" + std::string(port_text) + "'";
    return false;
  }
  spec->kind = ListenSpec::Kind::kTcp;
  spec->host = text.substr(0, colon);
  spec->port = port;
  return true;
}

// --- Poller --------------------------------------------------------------

bool Poller::wait(int timeout_ms, std::vector<Event>& events) {
  events.clear();
  std::vector<pollfd> fds;
  fds.reserve(interest_.size());
  for (const auto& [fd, interest] : interest_) {
    pollfd p{};
    p.fd = fd;
    p.events = static_cast<short>((interest.read ? POLLIN : 0) |
                                  (interest.write ? POLLOUT : 0));
    fds.push_back(p);
  }
  const int n = ::poll(fds.data(), fds.size(), timeout_ms);
  if (n < 0) return errno == EINTR;
  for (const pollfd& p : fds) {
    if (p.revents == 0) continue;
    Event ev;
    ev.fd = p.fd;
    ev.readable = (p.revents & (POLLIN | POLLHUP)) != 0;
    ev.writable = (p.revents & POLLOUT) != 0;
    ev.error = (p.revents & (POLLERR | POLLNVAL)) != 0;
    events.push_back(ev);
  }
  return true;
}

// --- ServeServer ---------------------------------------------------------

ServeServer::ServeServer(ServeSession& session, const ServerOptions& options)
    : session_(session), options_(options), read_buf_(kReadPerTurn) {}

ServeServer::~ServeServer() {
  for (const auto& [fd, conn] : connections_) {
    if (::close(fd) != 0) { /* already gone */ }
  }
  connections_.clear();
  if (listen_fd_ >= 0) {
    if (::close(listen_fd_) != 0) { /* nothing to do */ }
  }
  if (stop_read_fd_ >= 0) {
    if (::close(stop_read_fd_) != 0) { /* ditto */ }
  }
  if (stop_write_fd_ >= 0) {
    if (::close(stop_write_fd_) != 0) { /* ditto */ }
  }
  if (options_.listen.kind == ListenSpec::Kind::kUnix &&
      !options_.listen.path.empty()) {
    if (::unlink(options_.listen.path.c_str()) != 0) { /* best effort */ }
  }
}

bool ServeServer::start(std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    return false;
  };

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return fail("pipe");
  stop_read_fd_ = pipe_fds[0];
  stop_write_fd_ = pipe_fds[1];
  if (!set_nonblocking(stop_read_fd_) || !set_nonblocking(stop_write_fd_) ||
      !set_cloexec(stop_read_fd_) || !set_cloexec(stop_write_fd_)) {
    return fail("fcntl(stop pipe)");
  }

  if (options_.listen.kind == ListenSpec::Kind::kUnix) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return fail("socket(unix)");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options_.listen.path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::unlink(options_.listen.path.c_str()) != 0) { /* fresh path */ }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0) {
      return fail("bind(" + options_.listen.path + ")");
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return fail("socket(tcp)");
    const int one = 1;
    if (::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof one) != 0) {
      return fail("setsockopt(SO_REUSEADDR)");
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.listen.port);
    if (::inet_pton(AF_INET, options_.listen.host.c_str(), &addr.sin_addr) !=
        1) {
      if (error != nullptr) {
        *error = "bad listen host '" + options_.listen.host +
                 "' (IPv4 literal required)";
      }
      return false;
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0) {
      return fail("bind(" + options_.listen.host + ":" +
                  std::to_string(options_.listen.port) + ")");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) != 0) {
      return fail("getsockname");
    }
    bound_port_ = ntohs(bound.sin_port);
  }
  if (options_.sndbuf_bytes > 0) {
    // Accepted sockets inherit the listener's buffer size, bounding
    // kernel-side buffering per client.
    const int size = options_.sndbuf_bytes;
    if (::setsockopt(listen_fd_, SOL_SOCKET, SO_SNDBUF, &size,
                     sizeof size) != 0) {
      return fail("setsockopt(SO_SNDBUF)");
    }
  }
  if (!set_nonblocking(listen_fd_) || !set_cloexec(listen_fd_)) {
    return fail("fcntl(listener)");
  }
  if (::listen(listen_fd_, 64) != 0) return fail("listen");
  poller_.watch(listen_fd_, /*want_write=*/false);
  poller_.watch(stop_read_fd_, /*want_write=*/false);
  return true;
}

std::string ServeServer::banner() const {
  std::string out;
  metrics::JsonWriter w(out);
  w.begin_object().kv("schema", "sda.listen.v1");
  if (options_.listen.kind == ListenSpec::Kind::kUnix) {
    w.kv("transport", "unix").kv("path", options_.listen.path);
  } else {
    w.kv("transport", "tcp")
        .kv("host", options_.listen.host)
        .kv("port", static_cast<std::uint64_t>(bound_port_));
  }
  w.kv("backend", "poll")
      .kv("pid", static_cast<std::uint64_t>(::getpid()))
      .end_object();
  return out;
}

void ServeServer::request_stop() {
  // Async-signal-safe: one write, no locks, no allocation.
  const char byte = 's';
  if (stop_write_fd_ >= 0) {
    if (::write(stop_write_fd_, &byte, 1) != 1) {
      // A full pipe means a stop is already pending — good enough.
    }
  }
}

void ServeServer::accept_clients() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // The backlog stays readable, so a level-triggered poll would
        // return at once on every turn: stop watching the listener until
        // the next tick or the next closed connection.
        poller_.remove(listen_fd_);
        accept_paused_ = true;
        accept_retry_ms_ =
            steady_ms() + static_cast<std::uint64_t>(options_.tick_ms);
      }
      return;  // EAGAIN or a transient error: next readiness round
    }
    if (connections_.size() >= options_.max_connections) {
      ++stats_.rejected_connections;
      if (::close(fd) != 0) { /* rejected anyway */ }
      continue;
    }
    if (!set_nonblocking(fd) || !set_cloexec(fd)) {
      if (::close(fd) != 0) { /* setup failed */ }
      continue;
    }
    if (options_.listen.kind == ListenSpec::Kind::kTcp) {
      // A turn's replies already leave in one write; Nagle would hold
      // the next turn's small write until the peer's delayed ACK.
      const int one = 1;
      if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one) !=
          0) {
        /* still correct, only slower against delayed-ACK peers */
      }
    }
    poller_.watch(fd, /*want_write=*/false);
    Connection conn;
    conn.fd = fd;
    conn.splitter = LineSplitter(options_.max_line_bytes);
    conn.last_activity_ms = steady_ms();
    connections_.emplace(fd, std::move(conn));
    ++stats_.accepted;
  }
}

void ServeServer::flush_outboxes() {
  std::vector<int> to_close;
  for (auto& [fd, conn] : connections_) {
    if (!conn.outbox.empty()) {
      ssize_t n;
      do {
        n = ::send(fd, conn.outbox.data(), conn.outbox.size(), MSG_NOSIGNAL);
      } while (n < 0 && errno == EINTR);
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        to_close.push_back(fd);
        continue;
      }
      if (n > 0) conn.outbox.erase(0, static_cast<std::size_t>(n));
      if (conn.outbox.size() > options_.max_write_buffer) {
        // Slow-client backpressure: the peer is not reading its
        // decisions, and its kernel buffer refused this much.  Close
        // abortively (RST): a graceful close would leave the bytes the
        // kernel did accept queued for a peer that is not reading, and
        // the peer would not see the hangup until it read them.
        ++stats_.evicted_slow;
        const linger abort{1, 0};
        if (::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort, sizeof abort) !=
            0) {
          /* a graceful close still frees the connection */
        }
        to_close.push_back(fd);
        continue;
      }
    }
    conn.committed = conn.outbox.size();
    if (conn.draining && conn.outbox.empty()) {
      to_close.push_back(fd);
      continue;
    }
    poller_.watch(fd, /*want_write=*/!conn.outbox.empty(),
                  /*want_read=*/!conn.draining);
  }
  for (const int fd : to_close) close_connection(fd);
}

void ServeServer::route_replies(
    Connection* origin, const std::vector<ServeSession::Reply>& replies) {
  for (const ServeSession::Reply& reply : replies) {
    if (reply.kind == ServeSession::ReplyKind::kSummary) continue;
    int target_fd = -1;
    if (reply.kind == ServeSession::ReplyKind::kDecision && reply.has_id) {
      // Decisions deliver only over the id's registered route.  No
      // route — the sub was recovered by journal replay (routes are not
      // rebuilt across restarts) or its owner's route was dropped —
      // means orphaned: never fall back to whichever connection
      // happened to trigger the pump.
      const auto route = id_routes_.find(reply.id);
      if (route == id_routes_.end()) {
        ++stats_.orphaned_replies;
        continue;
      }
      target_fd = route->second;
      // A decision is final: the route has served its purpose.
      id_routes_.erase(route);
    } else if (origin != nullptr) {
      target_fd = origin->fd;
    }
    const auto it =
        target_fd >= 0 ? connections_.find(target_fd) : connections_.end();
    if (it == connections_.end()) {
      ++stats_.orphaned_replies;
      continue;
    }
    it->second.outbox += reply.line;  // written after the turn's commit
  }
}

void ServeServer::feed_line(Connection& conn, std::string_view line,
                            bool oversized) {
  ++stats_.lines;
  std::vector<ServeSession::Reply> replies;
  if (oversized) {
    // The splitter handed over a truncated prefix and is discarding the
    // rest; answer directly instead of feeding a half line through the
    // session (whose own limit check would see a plausible length).
    ServeSession::Reply r;
    r.kind = ServeSession::ReplyKind::kError;
    metrics::JsonWriter(r.line)
        .begin_object()
        .kv("schema", "sda.error.v1")
        .kv("code", to_string(ProtocolErrorCode::kLimit))
        .kv("reason", "line exceeds transport limit")
        .end_object();
    r.line += '\n';
    replies.push_back(std::move(r));
  } else if (const std::optional<std::uint64_t> accepted =
                 session_.handle_line(line, replies)) {
    // The sub's decision may resolve long after this line, triggered by
    // another client: route it to this connection.  Its decision, if
    // already made, is in replies and is routed below.
    id_routes_[*accepted] = conn.fd;
  }
  route_replies(&conn, replies);
}

void ServeServer::handle_readable(Connection& conn) {
  // One read per turn: the rest, if any, comes back on the next turn,
  // after this turn's replies are committed and written.
  ssize_t n;
  do {
    n = ::read(conn.fd, read_buf_.data(), read_buf_.size());
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    if (errno != EAGAIN && errno != EWOULDBLOCK) close_connection(conn.fd);
    return;
  }
  const auto on_line = [&](std::string_view line, bool oversized) {
    feed_line(conn, line, oversized);
  };
  if (n == 0) {
    // Peer half-closed: a final unterminated line still counts (matching
    // the istream harness's getline semantics).  The connection closes
    // once its replies are written.
    conn.splitter.finish(on_line);
    conn.draining = true;
    return;
  }
  conn.last_activity_ms = steady_ms();
  const bool had_partial = conn.splitter.has_partial();
  conn.splitter.feed(
      std::string_view(read_buf_.data(), static_cast<std::size_t>(n)),
      on_line);
  if (conn.splitter.has_partial()) {
    if (!had_partial || conn.partial_since_ms == 0) {
      conn.partial_since_ms = conn.last_activity_ms;
    }
  } else {
    conn.partial_since_ms = 0;
  }
}

void ServeServer::close_connection(int fd) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  poller_.remove(fd);
  if (::close(fd) != 0) { /* nothing better to do */ }
  connections_.erase(it);
  accept_retry_ms_ = 0;  // a descriptor is free again
  // Routes pointing at this client stay: later decisions for its
  // submissions surface as orphaned_replies, which is the honest count.
}

void ServeServer::enforce_timeouts(std::uint64_t now_ms) {
  std::vector<int> idle, stuck;
  for (const auto& [fd, conn] : connections_) {
    if (options_.idle_timeout_ms > 0 &&
        now_ms - conn.last_activity_ms >
            static_cast<std::uint64_t>(options_.idle_timeout_ms)) {
      idle.push_back(fd);
    } else if (options_.request_timeout_ms > 0 &&
               conn.partial_since_ms != 0 &&
               now_ms - conn.partial_since_ms >
                   static_cast<std::uint64_t>(options_.request_timeout_ms)) {
      stuck.push_back(fd);
    }
  }
  for (const int fd : idle) {
    ++stats_.evicted_idle;
    close_connection(fd);
  }
  for (const int fd : stuck) {
    ++stats_.evicted_request;
    close_connection(fd);
  }
}

void ServeServer::drain(std::ostream& out) {
  // Stop accepting; the fd stays open until destruction so late
  // connectors queue against a dead listener instead of racing a
  // rebinding of the port.
  poller_.remove(listen_fd_);
  // Every connection now only flushes its outbox, then closes.
  for (auto& [fd, conn] : connections_) conn.draining = true;

  std::vector<ServeSession::Reply> replies;
  session_.finish(replies, &stats_);  // journals a checkpoint, durably
  route_replies(nullptr, replies);
  for (const ServeSession::Reply& reply : replies) {
    if (reply.kind == ServeSession::ReplyKind::kSummary) out << reply.line;
  }
  out.flush();
  flush_and_close_all();
}

int ServeServer::fail_closed(std::ostream& out) {
  poller_.remove(listen_fd_);
  for (auto& [fd, conn] : connections_) {
    conn.outbox.resize(conn.committed);
    conn.draining = true;
  }
  out << session_.commit_failure_line();
  out.flush();
  flush_and_close_all();
  return 1;
}

void ServeServer::flush_and_close_all() {
  // Best-effort outbox flush inside the drain budget.
  const std::uint64_t deadline =
      steady_ms() + static_cast<std::uint64_t>(options_.drain_timeout_ms);
  std::vector<Poller::Event> events;
  for (;;) {
    flush_outboxes();
    if (connections_.empty() || steady_ms() >= deadline) break;
    if (!poller_.wait(10, events)) break;
  }
  std::vector<int> open_fds;
  for (const auto& [fd, conn] : connections_) open_fds.push_back(fd);
  for (const int fd : open_fds) close_connection(fd);
}

int ServeServer::run(std::ostream& out) {
  // The calling thread owns the event loop from here until return;
  // every handler below requires this role.
  util::RoleGuard loop_owner(loop_);
  std::vector<Poller::Event> events;
  while (!stop_requested_) {
    if (!poller_.wait(options_.tick_ms, events)) return 1;
    for (const Poller::Event& ev : events) {
      if (ev.fd == stop_read_fd_) {
        char sink[16];
        while (::read(stop_read_fd_, sink, sizeof sink) > 0) {
        }
        stop_requested_ = true;
        continue;
      }
      if (ev.fd == listen_fd_) {
        accept_clients();
        continue;
      }
      const auto it = connections_.find(ev.fd);
      if (it == connections_.end()) continue;
      if (ev.error) {
        close_connection(ev.fd);
        continue;
      }
      // Writable connections are served by the write phase below.
      if (ev.readable) handle_readable(it->second);
    }
    // Group commit: one fsync covers every line this turn fed, and only
    // then do the turn's replies leave.
    if (!session_.commit()) return fail_closed(out);
    flush_outboxes();
    const std::uint64_t now_ms = steady_ms();
    enforce_timeouts(now_ms);
    if (accept_paused_ && now_ms >= accept_retry_ms_) {
      accept_paused_ = false;
      poller_.watch(listen_fd_, /*want_write=*/false);
    }
  }
  drain(out);
  return 0;
}

}  // namespace sda::exp::net
