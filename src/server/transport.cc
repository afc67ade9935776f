#include "server/transport.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <istream>
#include <memory>
#include <ostream>
#include <unordered_map>
#include <utility>

#include "server/frame.h"

namespace habit::server {

// A handled frame's response, crossing from a worker back to the loop.
// The shared_ptr (not the fd) identifies the connection, so a recycled fd
// number can never deliver a stale response to a new connection.
struct LineTransport::Completion {
  std::shared_ptr<Conn> conn;
  std::string response;
};

// Per-connection state. Owned by the event-loop thread exclusively: no
// other thread reads or writes a Conn (workers only carry the shared_ptr
// through the completion queue), so none of this needs a mutex — the
// loop/worker handoff is the GUARDED_BY state on LineTransport itself.
struct LineTransport::Conn {
  enum class Mode { kUndecided, kJson, kBinary };

  int fd = -1;
  Mode mode = Mode::kUndecided;
  std::string in;  ///< unprocessed request bytes
  /// Unflushed response buffers, FIFO. Each response is queued by move —
  /// never copied into one accumulating string — and the whole backlog
  /// flushes with a single gathered write per attempt, so a pipelined
  /// client's burst of responses costs one syscall, not one send(2) each.
  std::deque<std::string> out;
  size_t out_off = 0;    ///< bytes of out.front() already sent
  size_t out_bytes = 0;  ///< total unflushed bytes across `out`
  bool busy = false;  ///< one frame in flight on the worker pool
  bool eof = false;   ///< peer half-closed its write side
  bool close_after_flush = false;  ///< hang up once `out` drains
  bool hangup = false;  ///< peer vanished while a frame was in flight
  bool registered = false;  ///< fd currently in the epoll set
  uint32_t armed = 0;       ///< epoll interest mask currently armed
};

namespace {

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void DrainEventFd(int fd) {
  uint64_t value;
  // lint: socket-io(eventfd drain, not socket IO)
  while (::read(fd, &value, sizeof(value)) > 0) {
  }
}

/// Gathered-flush fan-in cap per sendmsg(2) call — far below IOV_MAX
/// (1024 on Linux); a backlog deeper than this just takes another loop
/// iteration.
constexpr size_t kFlushIovMax = 64;

}  // namespace

// The epoll loop body. Lives entirely on the Serve() thread; holds the
// loop-private state (epoll fd, fd -> Conn map) and reaches into the
// owning transport only for hooks, limits, and the guarded completion
// queue.
class LineTransport::Loop {
 public:
  explicit Loop(LineTransport* t) : t_(t) {}

  Status Run() {
    ep_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (ep_ < 0) {
      return Status::IoError(std::string("epoll_create1: ") +
                             std::strerror(errno));
    }
    SetNonBlocking(t_->listen_fd_);
    Status status = Status::OK();
    if (!Add(t_->listen_fd_) || !Add(t_->wake_fd_) || !Add(t_->stop_fd_)) {
      status = Status::IoError(std::string("epoll_ctl: ") +
                               std::strerror(errno));
      stop_ = true;
    }
    epoll_event events[128];
    while (!stop_ && !t_->stopping_.load(std::memory_order_relaxed)) {
      // accept() backoff under fd exhaustion: poll again shortly instead
      // of spinning on the level-triggered listener readiness.
      const int timeout_ms = backoff_ ? 50 : -1;
      backoff_ = false;
      const int n = ::epoll_wait(ep_, events, 128, timeout_ms);
      if (n < 0) {
        if (errno == EINTR) continue;
        status = Status::IoError(std::string("epoll_wait: ") +
                                 std::strerror(errno));
        break;
      }
      if (n == 0) {
        Accept();
        continue;
      }
      for (int i = 0; i < n && !stop_; ++i) {
        const int fd = events[i].data.fd;
        const uint32_t ev = events[i].events;
        if (fd == t_->stop_fd_) {
          DrainEventFd(fd);
          stop_ = true;
        } else if (fd == t_->wake_fd_) {
          DrainEventFd(fd);
          ProcessCompletions();
        } else if (fd == t_->listen_fd_) {
          Accept();
        } else {
          OnConnEvent(fd, ev);
        }
      }
    }
    // Teardown: close every connection fd (in-flight responses have
    // nowhere to go; Serve() discards their completions while draining).
    for (auto& [fd, conn] : conns_) {
      ::close(conn->fd);
      conn->fd = -1;
    }
    conns_.clear();
    // Connections still parked in the listen backlog were never accepted;
    // closing the listener alone would leave them ESTABLISHED with no
    // owner, and their clients blocked on a response forever. Drain and
    // close them so every peer sees EOF.
    while (true) {
      const int fd = ::accept4(t_->listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;
      }
      ::close(fd);
    }
    ::close(ep_);
    return status;
  }

 private:
  using Mode = Conn::Mode;

  bool Add(int fd) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    return ::epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev) == 0;
  }

  void Accept() {
    while (true) {
      const int fd = ::accept4(t_->listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
            errno == ENOMEM) {
          // Transient resource exhaustion: back off instead of shutting
          // the whole server down — it clears when clients close.
          backoff_ = true;
          return;
        }
        // Listener broken (or shutdown(2) by legacy callers): stop
        // serving, matching the old accept-loop behavior.
        stop_ = true;
        return;
      }
      // No Nagle: a pipelined response must not wait for the ACK of the
      // one before it, which a delayed-ACK client holds back ~40 ms.
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_shared<Conn>();
      conn->fd = fd;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      if (::epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev) != 0) {
        ::close(fd);
        continue;
      }
      conn->registered = true;
      conn->armed = EPOLLIN;
      conns_.emplace(fd, std::move(conn));
    }
  }

  void OnConnEvent(int fd, uint32_t ev) {
    const auto it = conns_.find(fd);
    if (it == conns_.end()) return;  // closed earlier in this batch
    // Copy the shared_ptr: Close() erases the map entry mid-handling.
    const std::shared_ptr<Conn> conn = it->second;
    if ((ev & (EPOLLHUP | EPOLLERR)) != 0 && conn->busy) {
      // The peer vanished while its frame is being handled. Deregister so
      // the level-triggered HUP stops firing; the completion discards the
      // response and closes.
      if (conn->registered) {
        ::epoll_ctl(ep_, EPOLL_CTL_DEL, conn->fd, nullptr);
        conn->registered = false;
      }
      conn->hangup = true;
      return;
    }
    if ((ev & EPOLLOUT) != 0) OnWritable(conn);
    if (conn->fd >= 0 && (ev & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
      OnReadable(conn);
    }
  }

  // Backpressure rule for reading and dispatch: instead of pausing input
  // the moment ONE response is unflushed, keep accepting pipelined frames
  // until the unflushed tail passes the frame cap. Responses still come
  // back in request order (one frame in flight at a time), they just
  // coalesce into one gathered write; the out backlog stays bounded by
  // the cap plus one response.
  bool OutUnderCap(const Conn* c) const {
    return c->out_bytes <= t_->max_line_bytes_;
  }

  void OnReadable(const std::shared_ptr<Conn>& conn) {
    Conn* c = conn.get();
    char chunk[64 * 1024];
    while (c->fd >= 0 && !c->busy && !c->close_after_flush &&
           OutUnderCap(c) && !c->eof) {
      // lint: socket-io(the transport owns raw socket IO)
      const ssize_t got = ::recv(c->fd, chunk, sizeof(chunk), 0);
      if (got < 0 && errno == EINTR) continue;
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (got < 0) {
        Close(c);
        return;
      }
      if (got == 0) {
        c->eof = true;
        break;
      }
      c->in.append(chunk, static_cast<size_t>(got));
      ProcessInput(conn);
    }
    MaybeFinish(conn);
    if (c->fd >= 0) UpdateInterest(c);
  }

  void OnWritable(const std::shared_ptr<Conn>& conn) {
    if (!Flush(conn.get())) return;  // closed on send failure
    // Draining may reopen dispatch: a frame can sit buffered in c->in
    // while the out tail was over the cap, and a level-triggered EPOLLIN
    // never refires for bytes already read off the socket.
    ProcessInput(conn);
    MaybeFinish(conn);
    if (conn->fd >= 0) UpdateInterest(conn.get());
  }

  // Frames exactly one request out of conn->in and dispatches it. One
  // frame in flight per connection: responses come back in request order
  // and both buffers stay bounded (reading is disarmed while busy).
  void ProcessInput(const std::shared_ptr<Conn>& conn) {
    Conn* c = conn.get();
    if (c->fd < 0 || c->busy || c->close_after_flush || !OutUnderCap(c)) {
      return;
    }
    if (c->mode == Mode::kUndecided && !DecideMode(c)) return;
    if (c->mode == Mode::kJson) {
      ProcessJsonInput(conn);
    } else {
      ProcessBinaryInput(conn);
    }
  }

  // Negotiation: the binary protocol's first bytes are frame::kMagic
  // ("HBTF"); a JSON request starts with '{' or whitespace. Any prefix
  // mismatch settles on JSON; a full match settles on binary; a strict
  // prefix of the magic waits for more bytes.
  bool DecideMode(Conn* c) {
    if (t_->hooks_.handle_frame == nullptr) {
      c->mode = Mode::kJson;
      return true;
    }
    char magic[4];
    const uint32_t m = frame::kMagic;
    std::memcpy(magic, &m, sizeof(magic));
    const size_t have = std::min(c->in.size(), sizeof(magic));
    if (have == 0) return false;
    if (std::memcmp(c->in.data(), magic, have) != 0) {
      c->mode = Mode::kJson;
    } else if (have == sizeof(magic)) {
      c->mode = Mode::kBinary;
    } else {
      return false;  // an exact magic prefix so far — wait for more
    }
    return true;
  }

  void ProcessJsonInput(const std::shared_ptr<Conn>& conn) {
    Conn* c = conn.get();
    while (true) {
      const size_t nl = c->in.find('\n');
      if (nl == std::string::npos) {
        // An unterminated frame already past the cap can never become a
        // valid line; answer once and hang up rather than buffering
        // unboundedly.
        if (c->in.size() > t_->max_line_bytes_) {
          QueueResponse(c, t_->hooks_.oversize() + "\n");
          c->close_after_flush = true;
          c->in.clear();
        }
        return;
      }
      std::string_view line(c->in.data(), nl);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (line.empty()) {
        c->in.erase(0, nl + 1);
        continue;
      }
      // Terminated oversized lines are answered (and counted) through
      // the handler — which applies its own cap — then the connection
      // closes, the same deterministic rule as the thread-per-connection
      // transport had.
      const bool close_after = line.size() > t_->max_line_bytes_;
      std::string data(line);
      c->in.erase(0, nl + 1);
      Dispatch(conn, std::move(data), /*binary=*/false, close_after);
      return;
    }
  }

  void ProcessBinaryInput(const std::shared_ptr<Conn>& conn) {
    Conn* c = conn.get();
    // Interstitial newlines between frames are tolerated: the client's
    // negotiation probe is newline-terminated so a JSON-only server
    // answers it as one garbage line instead of waiting forever.
    size_t skip = 0;
    while (skip < c->in.size() &&
           (c->in[skip] == '\n' || c->in[skip] == '\r')) {
      ++skip;
    }
    if (skip > 0) c->in.erase(0, skip);
    if (c->in.size() < frame::kHeaderBytes) return;
    uint32_t magic;
    uint32_t length;
    std::memcpy(&magic, c->in.data(), sizeof(magic));
    std::memcpy(&length, c->in.data() + sizeof(magic), sizeof(length));
    if (magic != frame::kMagic) {
      QueueResponse(c, t_->hooks_.frame_error(Status::InvalidArgument(
                           "bad frame magic mid-stream")));
      c->close_after_flush = true;
      c->in.clear();
      return;
    }
    // The binary analog of max_line_bytes, enforced on the declared
    // length BEFORE buffering the payload: answered exactly once, then
    // the connection closes.
    if (length > t_->max_line_bytes_) {
      QueueResponse(c, t_->hooks_.frame_error(Status::InvalidArgument(
                           "frame of " + std::to_string(length) +
                           " bytes exceeds the limit of " +
                           std::to_string(t_->max_line_bytes_))));
      c->close_after_flush = true;
      c->in.clear();
      return;
    }
    if (c->in.size() < frame::kHeaderBytes + length) return;
    std::string payload = c->in.substr(frame::kHeaderBytes, length);
    c->in.erase(0, frame::kHeaderBytes + length);
    Dispatch(conn, std::move(payload), /*binary=*/true,
             /*close_after=*/false);
  }

  // Hands one frame to the worker pool; the completion comes back through
  // ready_ + the wake eventfd. Falls back to inline execution when no
  // executor is installed or the pool is shutting down — the frame is
  // still answered either way.
  void Dispatch(const std::shared_ptr<Conn>& conn, std::string data,
                bool binary, bool close_after) {
    Conn* c = conn.get();
    c->busy = true;
    if (close_after) c->close_after_flush = true;
    LineTransport* t = t_;
    {
      core::MutexLock lock(t->mu_);
      ++t->in_flight_;
    }
    std::function<void()> work = [t, conn, data = std::move(data),
                                  binary] {
      std::string response = binary ? t->hooks_.handle_frame(data)
                                    : t->hooks_.handle(data) + "\n";
      core::MutexLock lock(t->mu_);
      t->ready_.push_back(Completion{conn, std::move(response)});
      // Wake the loop while still holding mu_: once in_flight_ hits zero
      // the transport may be destroyed, and wake_fd_ with it.
      const uint64_t one = 1;
      // lint: socket-io(eventfd wake, not socket IO)
      [[maybe_unused]] const ssize_t n =
          ::write(t->wake_fd_, &one, sizeof(one));
      --t->in_flight_;
      t->cv_.NotifyAll();
    };
    if (t->hooks_.submit != nullptr && t->hooks_.submit(work).ok()) return;
    work();
  }

  void ProcessCompletions() {
    std::vector<Completion> ready;
    {
      core::MutexLock lock(t_->mu_);
      ready.swap(t_->ready_);
    }
    for (Completion& done : ready) {
      const std::shared_ptr<Conn>& conn = done.conn;
      Conn* c = conn.get();
      c->busy = false;
      if (c->fd < 0) continue;  // connection died while handling
      if (c->hangup) {
        Close(c);
        continue;
      }
      QueueResponse(c, std::move(done.response));
      if (c->fd < 0) continue;  // send failed inside the flush
      ProcessInput(conn);  // the next pipelined frame may be buffered
      MaybeFinish(conn);
      if (c->fd >= 0) UpdateInterest(c);
    }
  }

  void QueueResponse(Conn* c, std::string bytes) {
    if (bytes.empty()) return;
    c->out_bytes += bytes.size();
    c->out.push_back(std::move(bytes));
    Flush(c);  // opportunistic: most responses fit the socket buffer
  }

  // Gathered flush: every queued response buffer goes out in ONE vectored
  // syscall per attempt (sendmsg — writev(2) cannot pass MSG_NOSIGNAL),
  // instead of one send(2) per response. Returns false (and closes) on a
  // fatal send error; partial writes leave the rest for EPOLLOUT.
  bool Flush(Conn* c) {
    while (!c->out.empty()) {
      iovec iov[kFlushIovMax];
      size_t n = 0;
      for (const std::string& buf : c->out) {
        if (n == kFlushIovMax) break;
        const size_t skip = (n == 0) ? c->out_off : 0;
        iov[n].iov_base = const_cast<char*>(buf.data()) + skip;
        iov[n].iov_len = buf.size() - skip;
        ++n;
      }
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = n;
      // lint: socket-io(the transport owns raw socket IO)
      const ssize_t sent = ::sendmsg(c->fd, &msg, MSG_NOSIGNAL);
      if (sent < 0 && errno == EINTR) continue;
      if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;  // backpressure — UpdateInterest arms EPOLLOUT
      }
      if (sent <= 0) {
        Close(c);
        return false;
      }
      size_t advanced = static_cast<size_t>(sent);
      c->out_bytes -= advanced;
      while (advanced > 0) {
        const size_t left = c->out.front().size() - c->out_off;
        if (advanced < left) {
          c->out_off += advanced;
          break;
        }
        advanced -= left;
        c->out.pop_front();
        c->out_off = 0;
      }
    }
    return true;
  }

  // Terminal transitions: close once a deferred close's output drains,
  // and answer the final unterminated frame a half-closing peer left
  // behind (matching ServeStream — a client that sends one request with
  // no trailing newline and shutdown(SHUT_WR)s still gets its response).
  void MaybeFinish(const std::shared_ptr<Conn>& conn) {
    Conn* c = conn.get();
    if (c->fd < 0 || c->busy) return;
    const bool flushed = c->out.empty();
    if (c->close_after_flush) {
      if (flushed) Close(c);
      return;
    }
    if (!c->eof || !flushed) return;
    if (!c->in.empty() && c->mode != Mode::kBinary) {
      std::string_view line(c->in);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (!line.empty()) {
        std::string data(line);
        c->in.clear();
        Dispatch(conn, std::move(data), /*binary=*/false,
                 /*close_after=*/true);
        return;
      }
    }
    // A trailing *binary* fragment can never be answered (the frame is
    // incomplete by construction); just close.
    Close(c);
  }

  void UpdateInterest(Conn* c) {
    uint32_t want = 0;
    if (!c->busy && !c->close_after_flush && OutUnderCap(c) && !c->eof) {
      want |= EPOLLIN;
    }
    if (!c->out.empty()) want |= EPOLLOUT;
    if (want == c->armed || !c->registered) return;
    epoll_event ev{};
    ev.events = want;
    ev.data.fd = c->fd;
    if (::epoll_ctl(ep_, EPOLL_CTL_MOD, c->fd, &ev) == 0) c->armed = want;
  }

  void Close(Conn* c) {
    if (c->fd < 0) return;
    if (c->registered) {
      ::epoll_ctl(ep_, EPOLL_CTL_DEL, c->fd, nullptr);
      c->registered = false;
    }
    conns_.erase(c->fd);  // callers hold their own shared_ptr
    ::close(c->fd);
    c->fd = -1;
  }

  LineTransport* t_;
  int ep_ = -1;
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;
  bool stop_ = false;
  bool backoff_ = false;
};

LineTransport::LineTransport(size_t max_line_bytes, TransportHooks hooks)
    : max_line_bytes_(max_line_bytes), hooks_(std::move(hooks)) {
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  stop_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
}

LineTransport::~LineTransport() {
  Shutdown();
  {
    core::MutexLock lock(mu_);
    // Serve() drains in_flight_ before dropping serving_, but guard both
    // anyway: a worker may still be between its final decrement and
    // returning, and the eventfds must outlive its wake write.
    while (serving_ || in_flight_ != 0) cv_.Wait(mu_);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (stop_fd_ >= 0) ::close(stop_fd_);
}

void LineTransport::ServeStream(std::istream& in, std::ostream& out) {
  // Character-at-a-time so each frame is answered the moment its newline
  // arrives — a block read would sit on a long-lived pipe waiting for a
  // full chunk while the writer waits for the response (deadlock). The
  // per-char overhead is irrelevant next to request handling, and the
  // line buffer stays bounded by the same cap as the TCP path.
  std::string line;
  const auto emit = [this, &out](std::string_view frame) {
    if (!frame.empty() && frame.back() == '\r') frame.remove_suffix(1);
    if (frame.empty()) return true;
    out << hooks_.handle(frame) << '\n';
    out.flush();
    return static_cast<bool>(out);
  };
  int ch;
  while ((ch = in.get()) != std::char_traits<char>::eof()) {
    if (ch == '\n') {
      if (!emit(line)) return;
      line.clear();
      continue;
    }
    line.push_back(static_cast<char>(ch));
    // Same oversized-frame rule as the TCP path: any frame past the cap —
    // terminated or not — is answered once and serving stops (the buffer
    // must not grow with the input, and the rule must not depend on where
    // chunk boundaries landed).
    if (line.size() > max_line_bytes_) {
      out << hooks_.oversize() << '\n';
      out.flush();
      return;
    }
  }
  // A final unterminated frame at EOF is still answered (piping a single
  // request without a trailing newline is too common to reject).
  emit(line);
}

Status LineTransport::Listen(uint16_t port) {
  if (listen_fd_ >= 0) return Status::Internal("already listening");
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  // Loopback only: external traffic belongs behind a router/LB, not on a
  // raw port (and the router itself is loopback too — this repo's fleet
  // story is one machine, many address spaces).
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status st =
        Status::IoError(std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  if (::listen(fd, 1024) < 0) {
    const Status st =
        Status::IoError(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    bound_port_ = ntohs(bound.sin_port);
  }
  listen_fd_ = fd;
  return Status::OK();
}

Status LineTransport::Serve() {
  if (listen_fd_ < 0) return Status::Internal("Listen() first");
  if (wake_fd_ < 0 || stop_fd_ < 0) {
    return Status::IoError("eventfd creation failed");
  }
  {
    core::MutexLock lock(mu_);
    if (serving_) return Status::Internal("Serve() already running");
    serving_ = true;
  }
  Loop loop(this);
  const Status status = loop.Run();
  // Drain: workers still handling frames push their completions (the
  // responses have nowhere to go — every fd is closed) and decrement
  // in_flight_; once it hits zero no thread touches the queue again.
  {
    core::MutexLock lock(mu_);
    while (in_flight_ != 0) cv_.Wait(mu_);
    ready_.clear();
    serving_ = false;
    cv_.NotifyAll();
  }
  return status;
}

void LineTransport::Shutdown() {
  stopping_.store(true, std::memory_order_relaxed);
  if (stop_fd_ >= 0) {
    const uint64_t one = 1;
    // lint: socket-io(eventfd wake, not socket IO)
    [[maybe_unused]] const ssize_t n =
        ::write(stop_fd_, &one, sizeof(one));
  }
}

}  // namespace habit::server
