// The load generator for the served workloads: ONE thread driving a few
// loopback connections, so it takes little CPU from the server's workers.
//
// Open loop: frames are due on a fixed schedule (phase by phase, evenly
// spaced at the phase's rate) and are sent when due whether or not earlier
// frames were answered; frame k goes to connection k % connections. Each
// frame's latency runs from its DUE time, so a stall also charges the
// frames queued behind it, and the generator records how late it sent each
// frame (its own lag). The server answers one frame per connection at a
// time, in order, so responses match sent frames first-in first-out.
//
// A control script (live ingest) rides one extra connection closed-loop:
// each step is sent when the previous step's answer arrived.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "core/status.h"

namespace perfbench {

enum class Wire { kBinary, kJson };

/// Phases are summarized slice by slice (equal spans of due time) and the
/// median slice reported, so transient stalls on a shared machine move p50
/// and p95 only when they hit three of the five slices. (Measured on a
/// shared 4-core VM: the p99 of a 9 s phase spreads by 40% to 300% across
/// seeds, the median slice p95 by about 10%.)
constexpr size_t kSlices = 5;

/// One timed phase of the open-loop schedule.
struct Phase {
  double rate_fps = 0;   ///< frames per second offered
  double seconds = 0;    ///< phase length
};

/// One frame the generator sent, with its timing.
struct SentFrame {
  int phase = 0;
  size_t frame = 0;       ///< index into the frame set
  int64_t due_ns = 0;     ///< when the schedule said to send it
  int64_t sent_ns = 0;    ///< when the generator handed it to the kernel
  int64_t done_ns = 0;    ///< when its response completed (0 = never)
  std::string response;   ///< payload (binary, header stripped) or line
};

/// One control-script step (closed loop on its own connection).
struct ControlStep {
  std::string bytes;     ///< the complete encoded frame
  double not_before_s = 0;  ///< earliest send, after the first phase opened
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  std::string response;
};

struct LoadOptions {
  uint16_t port = 0;
  Wire wire = Wire::kBinary;
  int connections = 4;
  /// Encoded frames (binary frames with header, or JSON lines with '\n').
  const std::vector<std::string>* frames = nullptr;
  /// Frame index per send, cycled: the seeded order frames go out in.
  std::vector<size_t> order;
  std::vector<Phase> phases;
  /// Stop the phase list at the first phase that misses `limit_ms` at p95
  /// (the rate ladder: higher rungs would miss it too).
  bool stop_at_first_miss = false;
  double limit_ms = 0;
  /// Control script, started with the first phase, each step sent once
  /// the previous one was answered and its `not_before_s` has passed; the
  /// last phase is extended until the script finishes and one more second
  /// of traffic has followed it.
  std::vector<ControlStep>* control = nullptr;
  /// When set, every completed frame records a "client.frame" span (due
  /// time to response, request id = send index) as it completes.
  Tracer* tracer = nullptr;
};

/// Per-phase summary.
struct PhaseResult {
  Phase phase;
  size_t sent = 0;
  size_t answered = 0;
  /// Latency from due time: the median over the phase's time slices of
  /// each slice's p50 / p95 (see kSlices).
  double p50_ms = 0, p95_ms = 0;
  std::vector<double> slice_p95_ms;  ///< each slice's p95, in time order
  double p99_ms = 0;              ///< p99 over the whole phase
  double late_p99_ms = 0;         ///< generator lag (sent - due)
  double completed_qps_frames = 0;  ///< answered frames / phase seconds
  size_t backlog_at_end = 0;  ///< frames sent but unanswered at phase end
  bool met_limit = false;     ///< p95 within limit and backlog bounded
};

struct LoadResult {
  std::vector<SentFrame> frames;
  std::vector<PhaseResult> phases;
  habit::Status transport = habit::Status::OK();  ///< first IO failure
};

/// Runs the schedule against 127.0.0.1:port.
LoadResult RunLoad(const LoadOptions& options);

/// Closed-loop round trips over one connection, one frame at a time (the
/// near-idle probe); returns per-frame round trips in microseconds and
/// each response (payload or line) in `responses` when non-null.
habit::Result<std::vector<double>> RoundTrips(
    uint16_t port, Wire wire, const std::vector<std::string>& frames,
    size_t count, std::vector<std::string>* responses = nullptr);

}  // namespace perfbench
