// habit_serve's engine: a long-lived, multi-threaded line-protocol server
// holding ONE process-wide api::ModelCache. Each request line names its
// model by registry spec; the server validates the request *before*
// resolving the model (garbage input must never trigger a multi-second
// snapshot load), resolves through the cache (single-flight: N concurrent
// cold requests for one model pay one load), and answers every impute
// frame through ImputationModel::ImputeBatch with the shared worker pool
// as its worker source: the pool's workers claim the frame's gaps one at
// a time from the batch's shared cursor, each with its own search
// scratch, so no frame waits on a fixed heaviest share. All connections
// feed the same pool, so total search parallelism stays bounded by
// `ServerOptions::threads` regardless of client count.
//
// Transports live in server/transport.h (LineTransport — shared with the
// habit_route shard router): a loopback TCP epoll event loop (idle
// connections cost a fd, not a thread; a router/load-balancer terminates
// external traffic) and a stdin/stdout pipe mode. Both protocols feed one
// dispatch path — JSON lines through HandleLine, binary frames
// (server/frame.h) through HandleFrame, which share ExecuteImpute so the
// answers are identical bit for bit.
//
// Observability is O(1)-memory under unbounded traffic: per-model query
// latency runs through P^2 quantile estimators (p50/p99) and distinct
// vessels through a HyperLogLog, both surfaced by the `stats` op — no
// per-request log retained, ever.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ais/ais.h"
#include "api/epoch.h"
#include "api/model_cache.h"
#include "core/sync.h"
#include "core/thread_annotations.h"
#include "server/protocol.h"
#include "server/transport.h"
#include "sketch/hyperloglog.h"
#include "sketch/quantile.h"

namespace habit::server {

/// \brief Fixed-size thread pool executing submitted closures; a frame's
/// batch runs as up to one claim loop per worker (RunAll), and its
/// handler waits on a per-batch latch.
///
/// All connections share one pool, so the process-wide search concurrency
/// is `workers` no matter how many clients are connected.
class WorkerPool {
 public:
  explicit WorkerPool(int workers);

  /// Shuts down (idempotent) and joins the worker threads. Tasks already
  /// queued still run to completion first — destruction drains, it never
  /// abandons work a RunAll caller is blocked on.
  ~WorkerPool();

  int workers() const { return workers_; }

  /// Runs `tasks` on the pool and blocks until all complete. The waiting
  /// thread HELPS: while its batch is outstanding it drains other RunAll
  /// tasks from the queue, so a Submit()ted frame handler may itself call
  /// RunAll (its frame's ImputeBatch) without deadlocking a fully-busy
  /// pool. RunAll leaf tasks themselves must not nest further.
  ///
  /// Returns non-OK without running anything when the pool has been shut
  /// down, and kInternal when a task threw (the exception is contained:
  /// remaining tasks still run, the worker thread survives, and the
  /// first exception's message is reported to THIS caller).
  Status RunAll(std::vector<std::function<void()>> tasks) EXCLUDES(mu_);

  /// Enqueues one fire-and-forget closure (the transport's frame
  /// handlers). Runs at lower priority than RunAll batch tasks — batch
  /// claim loops are latency-critical sub-work of a frame already being
  /// handled. Returns non-OK (and does not run `work`) when the pool is
  /// shut down; the caller runs it inline instead.
  Status Submit(std::function<void()> work) EXCLUDES(mu_);

  /// Stops accepting work, drains the queue, and joins the workers. Safe
  /// to call from any thread, any number of times; the destructor calls
  /// it too. Subsequent RunAll calls fail cleanly instead of deadlocking
  /// on a dead pool.
  void Shutdown() EXCLUDES(mu_);

 private:
  void WorkerMain() EXCLUDES(mu_);

  const int workers_;  ///< resolved pool size (immutable after ctor)
  core::Mutex mu_;
  core::CondVar work_cv_;  ///< signaled on new work and on shutdown
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  /// Fire-and-forget closures (Submit): drained after queue_ so frame
  /// handling never starves the batch tasks of frames already running.
  std::deque<std::function<void()>> submitted_ GUARDED_BY(mu_);
  bool stopping_ GUARDED_BY(mu_) = false;
  /// Joinable workers; swapped out (under mu_) by the first Shutdown so
  /// concurrent shutdowns never double-join.
  std::vector<std::thread> threads_ GUARDED_BY(mu_);
};

/// The serving-surface spec policy, in ONE place (the request router and
/// habit_serve's --preload both enforce it — a param banned here must be
/// banned in both, or preload warms cache entries every request refuses):
/// save= is a file-write side effect, threads= is in-process concurrency
/// that would nest pools and key unbounded duplicate cache entries.
Status CheckServedSpec(const api::MethodSpec& spec);

/// \brief Configuration for a Server.
struct ServerOptions {
  size_t cache_bytes = 1ull << 30;  ///< ModelCache byte budget
  int threads = 0;      ///< worker pool size; 0 = hardware concurrency
  size_t max_batch = 4096;          ///< per-frame request cap
  size_t max_line_bytes = 4ull << 20;  ///< frame size cap (TCP + stdin)
};

/// \brief The long-lived serving frontend.
class Server {
 public:
  explicit Server(const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The whole request path: one protocol frame in, one response line out
  /// (no trailing newline). Thread-safe — every transport and test goes
  /// through here, so transport code stays a dumb byte shuttle.
  std::string HandleLine(std::string_view line) EXCLUDES(stats_mu_);

  /// The binary request path: one frame payload in (header stripped by
  /// the transport), one complete encoded response frame out. Structured
  /// impute ops skip JSON entirely; op=json payloads pass through
  /// HandleLine. Thread-safe, same as HandleLine.
  std::string HandleFrame(std::string_view payload) EXCLUDES(stats_mu_);

  /// Resolves `spec` through the process-wide cache, recording per-model
  /// request stats. Shared with habit_cli serve-from-snapshot, so the CLI
  /// and the server exercise the same resolution path.
  Result<std::shared_ptr<const api::ImputationModel>> Resolve(
      const api::MethodSpec& spec) EXCLUDES(stats_mu_);

  const api::ModelCache& cache() const { return cache_; }
  const ServerOptions& options() const { return options_; }

  /// Attaches the epoch pipeline behind the `ingest`/`rollover` ops and
  /// routes every trips-built (non-load=) spec resolution through the
  /// current epoch's cumulative trip set. `base` seeds epoch 0 (may be
  /// empty: the live spec then answers NotFound until the first
  /// rollover). Must be called before serving starts — the pointer is
  /// written once here and only read by request handlers afterwards.
  Status EnableIngest(api::EpochPipeline::Options options,
                      std::vector<ais::Trip> base);

  /// The attached pipeline (nullptr when ingest is disabled).
  const api::EpochPipeline* epoch_pipeline() const { return epoch_.get(); }

  /// Serves newline-delimited frames from `in` to `out` until EOF (the
  /// --stdin pipe mode; also the easiest harness for tests).
  void ServeStream(std::istream& in, std::ostream& out);

  /// Binds a loopback TCP listener. Port 0 picks an ephemeral port
  /// (bound_port() reports it).
  Status Listen(uint16_t port) { return transport_.Listen(port); }
  uint16_t bound_port() const { return transport_.bound_port(); }

  /// The listening socket (-1 before Listen).
  int listen_fd() const { return transport_.listen_fd(); }

  /// Stop eventfd: a signal handler write(2)s any value here to stop
  /// Serve() (async-signal-safe, reliably wakes the event loop).
  int stop_fd() const { return transport_.stop_fd(); }

  /// Worker pool size actually in effect (options.threads resolved).
  int workers() const { return pool_.workers(); }

  /// Accept loop (see LineTransport::Serve): returns after Shutdown()
  /// once every connection has drained.
  Status Serve() { return transport_.Serve(); }

  /// Stops Serve(): shuts down the listener and every connection socket,
  /// waking their threads. Safe to call from any thread; ~Server waits
  /// for connections to drain.
  void Shutdown() { transport_.Shutdown(); }

 private:
  struct ModelStats {
    uint64_t resolves = 0;  ///< cache resolutions (frames + CLI lookups)
    uint64_t queries_ok = 0;
    uint64_t queries_failed = 0;
    /// Per-query wall-time percentiles, O(1) memory under unbounded
    /// traffic (P^2 estimators — no latency log retained).
    sketch::P2Quantile latency_p50{0.5};
    sketch::P2Quantile latency_p99{0.99};
    /// Distinct vessels seen by this model (requests carrying "vessel").
    sketch::HyperLogLog vessels{12};
  };

  std::string HandleParsed(const Request& request);
  std::string HandleImpute(const Request& request);

  /// The shared ingest/rollover engine behind both protocols: stages the
  /// frame's trips (or forces the epoch boundary) and reports
  /// {epoch, accepted, pending}; the caller renders its wire format.
  Status ExecuteIngest(const Request& request, uint64_t* epoch,
                       uint64_t* accepted, uint64_t* pending)
      EXCLUDES(stats_mu_);

  /// The shared impute engine behind both protocols: validation (with the
  /// JSON path's field naming), spec policy, cache resolution, pool
  /// dispatch, and stats recording. Returns the per-request results or
  /// the frame-level rejection status; the caller renders whichever
  /// wire format its protocol speaks.
  Result<std::vector<Result<api::ImputeResponse>>> ExecuteImpute(
      const Request& request) EXCLUDES(stats_mu_);

  /// Builds the frame-level error response and counts it in
  /// frames_rejected_ — every ok:false *frame* goes through here, so the
  /// stats counter covers all rejection classes (framing, validation,
  /// spec errors, resolution failures), not a subset.
  std::string RejectFrame(const Status& status, const Json& id = Json())
      EXCLUDES(stats_mu_);
  std::string StatsLine(const Json& id) EXCLUDES(stats_mu_);
  std::string MethodsLine(const Json& id);

  ServerOptions options_;
  api::ModelCache cache_;
  /// Written once by EnableIngest before serving, read-only afterwards
  /// (request handlers never mutate it) — declared after cache_ so the
  /// builder thread outlives nothing it uses, and before transport_ so
  /// in-flight handlers drain before the pipeline stops.
  std::unique_ptr<api::EpochPipeline> epoch_;
  WorkerPool pool_;

  /// Guards every serving counter below: connection threads write them
  /// per frame while the `stats` op reads a consistent snapshot.
  core::Mutex stats_mu_;
  /// canonical spec -> stats
  std::map<std::string, ModelStats> model_stats_ GUARDED_BY(stats_mu_);
  uint64_t frames_total_ GUARDED_BY(stats_mu_) = 0;
  uint64_t frames_rejected_ GUARDED_BY(stats_mu_) = 0;

  /// Last member: its destructor drains the event loop and every
  /// in-flight frame, whose handlers (HandleLine/HandleFrame) touch
  /// everything above until they finish.
  LineTransport transport_;
};

}  // namespace habit::server
