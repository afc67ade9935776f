#include "loadgen.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>

#include "server/frame.h"

namespace perfbench {

namespace {

// Stragglers still unanswered this long after a phase count as failed.
constexpr double kDrainSeconds = 5.0;
constexpr double kAfterControlSeconds = 1.0;

struct Conn {
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  std::string in;
  std::deque<size_t> pending;  ///< FIFO of sent frames (or control steps)

  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

habit::Status Connect(uint16_t port, bool nonblocking, Conn* conn) {
  conn->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (conn->fd < 0) return habit::Status::IoError("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(conn->fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return habit::Status::IoError(std::string("connect: ") +
                                  std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (nonblocking) {
    const int flags = ::fcntl(conn->fd, F_GETFL, 0);
    ::fcntl(conn->fd, F_SETFL, flags | O_NONBLOCK);
  }
  return habit::Status::OK();
}

// Pops one complete response off `in`: a binary frame payload (header
// stripped) or a JSON line (newline stripped). False when incomplete;
// `status` turns non-OK on a corrupt binary header.
bool PopResponse(Wire wire, std::string* in, std::string* out,
                 habit::Status* status) {
  if (wire == Wire::kJson) {
    const size_t nl = in->find('\n');
    if (nl == std::string::npos) return false;
    out->assign(*in, 0, nl);
    in->erase(0, nl + 1);
    return true;
  }
  if (in->size() < server::frame::kHeaderBytes) return false;
  uint32_t magic = 0;
  uint32_t length = 0;
  std::memcpy(&magic, in->data(), sizeof(magic));
  std::memcpy(&length, in->data() + sizeof(magic), sizeof(length));
  if (magic != server::frame::kMagic || length > (64u << 20)) {
    *status = habit::Status::IoError("bad response frame header");
    return false;
  }
  if (in->size() < server::frame::kHeaderBytes + length) return false;
  out->assign(*in, server::frame::kHeaderBytes, length);
  in->erase(0, server::frame::kHeaderBytes + length);
  return true;
}

// Non-blocking flush of `conn->out`; false on a hard send error.
bool Flush(Conn* conn) {
  while (conn->out_off < conn->out.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data() + conn->out_off,
               conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n <= 0) return false;
    conn->out_off += static_cast<size_t>(n);
  }
  conn->out.clear();
  conn->out_off = 0;
  return true;
}

// Non-blocking read into `conn->in`; false on error or peer close.
bool Fill(Conn* conn) {
  char chunk[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n <= 0) return false;
    conn->in.append(chunk, static_cast<size_t>(n));
    if (static_cast<size_t>(n) < sizeof(chunk)) return true;
  }
}

PhaseResult Summarize(const Phase& phase, int index, int64_t start_ns,
                      int64_t end_ns, const std::vector<SentFrame>& frames,
                      const LoadOptions& options) {
  PhaseResult r;
  r.phase = phase;
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  std::vector<std::vector<double>> slices(kSlices);
  int64_t last_done = start_ns;
  const double slice_ns =
      std::max(1.0, static_cast<double>(end_ns - start_ns) / kSlices);
  for (const SentFrame& f : frames) {
    if (f.phase != index) continue;
    ++r.sent;
    late_ms.push_back(NsToMs(f.sent_ns - f.due_ns));
    if (f.done_ns == 0 || f.done_ns > end_ns) ++r.backlog_at_end;
    if (f.done_ns == 0) continue;
    ++r.answered;
    const double ms = NsToMs(f.done_ns - f.due_ns);
    latency_ms.push_back(ms);
    const size_t slice = std::min<size_t>(
        kSlices - 1,
        static_cast<size_t>(static_cast<double>(f.due_ns - start_ns) / slice_ns));
    slices[slice].push_back(ms);
    last_done = std::max(last_done, f.done_ns);
  }
  std::vector<double> slice_p50;
  for (const std::vector<double>& s : slices) {
    if (s.empty()) continue;
    slice_p50.push_back(Percentile(s, 0.5));
    r.slice_p95_ms.push_back(Percentile(s, 0.95));
  }
  r.p50_ms = Median(slice_p50);
  r.p95_ms = Median(r.slice_p95_ms);
  r.p99_ms = Percentile(latency_ms, 0.99);
  r.late_p99_ms = Percentile(late_ms, 0.99);
  const double span_s = NsToS(last_done - start_ns);
  r.completed_qps_frames =
      span_s > 0 ? static_cast<double>(r.answered) / span_s : 0.0;
  r.met_limit = r.sent > 0 && r.answered == r.sent &&
                (options.limit_ms <= 0 || r.p95_ms <= options.limit_ms) &&
                r.backlog_at_end <=
                    2 * static_cast<size_t>(options.connections);
  return r;
}

}  // namespace

LoadResult RunLoad(const LoadOptions& options) {
  LoadResult result;
  std::vector<Conn> conns(static_cast<size_t>(options.connections));
  for (Conn& c : conns) {
    result.transport = Connect(options.port, /*nonblocking=*/true, &c);
    if (!result.transport.ok()) return result;
  }
  Conn control;
  std::vector<ControlStep>* script = options.control;
  size_t next_step = 0;
  if (script != nullptr && !script->empty()) {
    result.transport = Connect(options.port, /*nonblocking=*/true, &control);
    if (!result.transport.ok()) return result;
  }
  const auto script_done = [&] {
    return script == nullptr || script->empty() ||
           (next_step == script->size() && control.pending.empty());
  };

  size_t sends = 0;
  int64_t script_start = 0;
  int64_t script_end = 0;
  habit::Status& io = result.transport;
  std::vector<pollfd> pfds;

  // One pass of IO: flush, poll until `wake_ns`, read and match responses.
  const auto pump = [&](int64_t wake_ns) {
    pfds.clear();
    std::vector<Conn*> polled;
    for (Conn& c : conns) polled.push_back(&c);
    if (control.fd >= 0) polled.push_back(&control);
    for (Conn* c : polled) {
      if (!c->out.empty() && !Flush(c)) {
        io = habit::Status::IoError("send failed");
        return;
      }
      short events = POLLIN;
      if (!c->out.empty()) events |= POLLOUT;
      pfds.push_back({c->fd, events, 0});
    }
    const int64_t wait_ns = std::max<int64_t>(0, wake_ns - NowNs());
    timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                static_cast<long>(wait_ns % 1000000000)};
    const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (ready <= 0) return;
    for (size_t i = 0; i < pfds.size(); ++i) {
      Conn* c = polled[i];
      if (pfds[i].revents & POLLOUT) {
        if (!Flush(c)) {
          io = habit::Status::IoError("send failed");
          return;
        }
      }
      if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      if (!Fill(c)) {
        io = habit::Status::IoError("connection closed by the server");
        return;
      }
      // Acknowledge at once (re-armed after every read): habit_serve does
      // not set TCP_NODELAY, so a delayed ACK would hold its next
      // pipelined response until our next send (see README.md).
      const int one = 1;
      ::setsockopt(c->fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
      const int64_t now = NowNs();
      std::string response;
      while (PopResponse(options.wire, &c->in, &response, &io)) {
        if (c->pending.empty()) {
          io = habit::Status::IoError("response without a request");
          return;
        }
        const size_t idx = c->pending.front();
        c->pending.pop_front();
        if (c == &control) {
          (*script)[idx].done_ns = now;
          (*script)[idx].response = std::move(response);
          if (next_step == script->size() && control.pending.empty()) {
            script_end = now;
          }
        } else {
          result.frames[idx].done_ns = now;
          result.frames[idx].response = std::move(response);
          if (options.tracer != nullptr) {
            options.tracer->Record("client.frame", result.frames[idx].due_ns,
                                   now, Tracer::kNoParent,
                                   static_cast<int64_t>(idx));
          }
        }
      }
      if (!io.ok()) return;
    }
  };

  const auto step_control = [&] {
    if (script == nullptr || control.fd < 0 || !control.pending.empty() ||
        next_step >= script->size()) {
      return;
    }
    ControlStep& step = (*script)[next_step];
    const int64_t now = NowNs();
    if (now < script_start + static_cast<int64_t>(step.not_before_s * 1e9)) {
      return;
    }
    step.sent_ns = now;
    control.out += step.bytes;
    control.pending.push_back(next_step);
    ++next_step;
  };

  for (size_t p = 0; p < options.phases.size() && io.ok(); ++p) {
    const Phase& phase = options.phases[p];
    const bool last = p + 1 == options.phases.size();
    const int64_t start = NowNs() + 1000000;
    if (p == 0) script_start = start;
    const double interval_ns = 1e9 / phase.rate_fps;
    int64_t end = start + static_cast<int64_t>(phase.seconds * 1e9);
    for (int64_t k = 0; io.ok(); ++k) {
      if (last && !script_done()) {
        end = std::max(end, NowNs() + static_cast<int64_t>(interval_ns));
      } else if (last && script != nullptr && !script->empty()) {
        end = std::max(end, script_end + static_cast<int64_t>(
                                             kAfterControlSeconds * 1e9));
      }
      const int64_t due =
          start + static_cast<int64_t>(std::llround(k * interval_ns));
      if (due >= end) break;
      while (io.ok() && NowNs() < due) {
        step_control();
        pump(due);
      }
      if (!io.ok()) break;
      SentFrame f;
      f.phase = static_cast<int>(p);
      f.frame = options.order[sends % options.order.size()];
      f.due_ns = due;
      f.sent_ns = NowNs();
      Conn& c = conns[sends % conns.size()];
      c.out += (*options.frames)[f.frame];
      c.pending.push_back(result.frames.size());
      result.frames.push_back(std::move(f));
      ++sends;
      if (!Flush(&c)) io = habit::Status::IoError("send failed");
    }
    // Drain this phase's stragglers before the next phase starts.
    const int64_t drain_until =
        NowNs() + static_cast<int64_t>(kDrainSeconds * 1e9);
    while (io.ok() && NowNs() < drain_until) {
      bool idle = true;
      for (const Conn& c : conns) idle = idle && c.pending.empty();
      if (idle && (!last || script_done())) break;
      step_control();
      pump(std::min(drain_until, NowNs() + 1000000));
    }
    result.phases.push_back(Summarize(phase, static_cast<int>(p), start, end,
                                      result.frames, options));
    if (options.stop_at_first_miss && !result.phases.back().met_limit) break;
  }
  if (io.ok() && !script_done()) {
    io = habit::Status::Timeout("control script did not finish");
  }
  return result;
}

habit::Result<std::vector<double>> RoundTrips(
    uint16_t port, Wire wire, const std::vector<std::string>& frames,
    size_t count, std::vector<std::string>* responses) {
  Conn conn;
  HABIT_RETURN_NOT_OK(Connect(port, /*nonblocking=*/false, &conn));
  std::vector<double> out;
  out.reserve(count);
  habit::Status status;
  for (size_t i = 0; i < count; ++i) {
    const std::string& bytes = frames[i % frames.size()];
    const int64_t start = NowNs();
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(conn.fd, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return habit::Status::IoError("send failed");
      off += static_cast<size_t>(n);
    }
    std::string response;
    while (!PopResponse(wire, &conn.in, &response, &status)) {
      HABIT_RETURN_NOT_OK(status);
      char chunk[64 * 1024];
      const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return habit::Status::IoError("connection closed");
      conn.in.append(chunk, static_cast<size_t>(n));
    }
    out.push_back(NsToUs(NowNs() - start));
    if (responses != nullptr) responses->push_back(std::move(response));
  }
  return out;
}

}  // namespace perfbench
