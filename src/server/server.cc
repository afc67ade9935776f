#include "server/server.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "api/registry.h"
#include "server/frame.h"

namespace habit::server {

// ---------------------------------------------------------------- WorkerPool

namespace {

int ResolveWorkerCount(int workers) {
  const int n = workers > 0
                    ? workers
                    : static_cast<int>(std::thread::hardware_concurrency());
  return n > 0 ? n : 1;
}

}  // namespace

WorkerPool::WorkerPool(int workers) : workers_(ResolveWorkerCount(workers)) {
  threads_.reserve(static_cast<size_t>(workers_));
  for (int i = 0; i < workers_; ++i) {
    threads_.emplace_back([this] { WorkerMain(); });
  }
}

WorkerPool::~WorkerPool() { Shutdown(); }

void WorkerPool::Shutdown() {
  // The first caller swaps the joinable threads out under the lock, so a
  // concurrent Shutdown (or the destructor racing an explicit call) never
  // double-joins; later callers see an empty vector and return.
  std::vector<std::thread> joinable;
  {
    core::MutexLock lock(mu_);
    stopping_ = true;
    joinable.swap(threads_);
  }
  work_cv_.NotifyAll();
  for (std::thread& t : joinable) t.join();
}

void WorkerPool::WorkerMain() {
  while (true) {
    std::function<void()> task;
    {
      core::MutexLock lock(mu_);
      while (!stopping_ && queue_.empty() && submitted_.empty()) {
        work_cv_.Wait(mu_);
      }
      // Batch tasks first: they are sub-work of frames already being
      // handled, so finishing them beats starting new frames.
      if (!queue_.empty()) {
        task = std::move(queue_.front());
        queue_.pop_front();
      } else if (!submitted_.empty()) {
        task = std::move(submitted_.front());
        submitted_.pop_front();
      } else {
        return;  // stopping, both queues drained
      }
    }
    task();
  }
}

Status WorkerPool::Submit(std::function<void()> work) {
  {
    core::MutexLock lock(mu_);
    if (stopping_) {
      // The workers may already be gone; the caller runs inline instead
      // of stranding the closure (a dropped frame handler would leak the
      // transport's in-flight count).
      return Status::Internal("worker pool is shut down");
    }
    submitted_.push_back(std::move(work));
  }
  work_cv_.NotifyOne();
  return Status::OK();
}

Status WorkerPool::RunAll(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return Status::OK();
  // Per-batch completion latch: the submitting (connection) thread blocks
  // here, not on the pool, so many connections can have batches in flight
  // while total search concurrency stays at workers().
  struct Latch {
    core::Mutex mu;
    core::CondVar cv;
    size_t remaining GUARDED_BY(mu) = 0;
    /// First exception any task of this batch threw (the rest still run).
    std::exception_ptr error GUARDED_BY(mu);
  };
  auto latch = std::make_shared<Latch>();
  {
    core::MutexLock lock(latch->mu);
    latch->remaining = tasks.size();
  }
  {
    core::MutexLock lock(mu_);
    if (stopping_) {
      // Enqueueing onto a stopping pool could strand this caller forever
      // (the workers may already be gone); fail loudly instead.
      return Status::Internal("worker pool is shut down");
    }
    for (std::function<void()>& task : tasks) {
      queue_.push_back([task = std::move(task), latch] {
        // Contain task exceptions: an escaping exception on a worker
        // thread is std::terminate, and a skipped latch decrement wedges
        // the submitter forever. The first exception is reported to the
        // RunAll caller; the worker thread itself survives.
        try {
          task();
        } catch (...) {
          core::MutexLock error_lock(latch->mu);
          if (!latch->error) latch->error = std::current_exception();
        }
        core::MutexLock done_lock(latch->mu);
        if (--latch->remaining == 0) latch->cv.NotifyAll();
      });
    }
  }
  work_cv_.NotifyAll();
  // Help while waiting: drain queue_ tasks on THIS thread until the batch
  // completes. A frame handler running on a worker (Submit) that calls
  // RunAll therefore always makes progress — even with every worker busy
  // in nested RunAll, each waiter executes its own batch's tasks. Safe
  // against missed wakeups because this batch is fully enqueued above:
  // once queue_ looks empty, our tasks are running or done, and the
  // latch re-check under its mutex catches the final completion.
  std::exception_ptr error;
  while (true) {
    std::function<void()> task;
    {
      core::MutexLock lock(mu_);
      if (!queue_.empty()) {
        task = std::move(queue_.front());
        queue_.pop_front();
      }
    }
    if (task) {
      task();
      continue;
    }
    core::MutexLock wait_lock(latch->mu);
    if (latch->remaining == 0) {
      error = latch->error;
      break;
    }
    latch->cv.Wait(latch->mu);
  }
  if (error) {
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      return Status::Internal(std::string("worker task threw: ") + e.what());
    } catch (...) {
      return Status::Internal("worker task threw a non-std exception");
    }
  }
  return Status::OK();
}

// -------------------------------------------------------------------- Server

Status CheckServedSpec(const api::MethodSpec& spec) {
  // save= has a write side effect per resolution; a query surface must
  // not be a remote file-writing primitive.
  if (spec.params.contains("save")) {
    return Status::InvalidArgument(
        "save= is not allowed in a served model spec");
  }
  // threads= is the *in-process* batch-parallelism knob; under the server
  // the worker pool owns concurrency. Letting clients set it would nest
  // thread pools (workers x threads searches per frame, unbounded by
  // --threads) and key a distinct cache entry per value — an easy way to
  // flood the byte budget with duplicate models.
  if (spec.params.contains("threads")) {
    return Status::InvalidArgument(
        "threads= is not allowed in a served model spec (concurrency is "
        "the server's --threads worker pool)");
  }
  return Status::OK();
}

Server::Server(const ServerOptions& options)
    : options_(options),
      cache_(options.cache_bytes),
      pool_(options.threads),
      transport_(
          options.max_line_bytes,
          TransportHooks{
              .handle = [this](std::string_view line) {
                return HandleLine(line);
              },
              .handle_frame = [this](std::string_view payload) {
                return HandleFrame(payload);
              },
              // The transport's unterminated-overflow answer: count the
              // frame (HandleLine never saw it) and reject it with the
              // same message a terminated oversized line gets.
              .oversize = [this] {
                {
                  core::MutexLock lock(stats_mu_);
                  ++frames_total_;
                }
                return RejectFrame(Status::InvalidArgument(
                    "frame exceeds " +
                    std::to_string(options_.max_line_bytes) + " bytes"));
              },
              // Framing-level binary violations (oversized declared
              // length, bad magic): HandleFrame never saw them, so count
              // both the frame and the rejection here.
              .frame_error = [this](const Status& error) {
                {
                  core::MutexLock lock(stats_mu_);
                  ++frames_total_;
                  ++frames_rejected_;
                }
                return frame::EncodeErrorFrame(error, Json());
              },
              .submit = [this](std::function<void()> work) {
                return pool_.Submit(std::move(work));
              },
          }) {}

// transport_ is the last member: its destructor shuts the listener down
// and drains connection threads (which call HandleLine) before the cache
// and pool above it are destroyed.
Server::~Server() = default;

Result<std::shared_ptr<const api::ImputationModel>> Server::Resolve(
    const api::MethodSpec& spec) {
  auto model = cache_.Get(spec);
  if (model.ok()) {
    core::MutexLock lock(stats_mu_);
    ++model_stats_[spec.ToString()].resolves;
  }
  return model;
}

Status Server::EnableIngest(api::EpochPipeline::Options options,
                            std::vector<ais::Trip> base) {
  if (epoch_ != nullptr) {
    return Status::AlreadyExists("ingest is already enabled");
  }
  HABIT_ASSIGN_OR_RETURN(
      epoch_, api::EpochPipeline::Make(&cache_, std::move(options),
                                       std::move(base)));
  return Status::OK();
}

Status Server::ExecuteIngest(const Request& request, uint64_t* epoch,
                             uint64_t* accepted, uint64_t* pending) {
  if (epoch_ == nullptr) {
    return Status::InvalidArgument(
        "ingest is not enabled (start habit_serve with --ingest-spec)");
  }
  if (request.op == Request::Op::kRollover) {
    HABIT_ASSIGN_OR_RETURN(*epoch, epoch_->Rollover());
    *accepted = 0;
    *pending = epoch_->stats().pending_trips;
    return Status::OK();
  }
  // The parsed request is shared between protocols and handlers keep it
  // const; the pipeline owns the staged trips, so the frame's copy moves.
  std::vector<ais::Trip> trips = request.trips;
  return epoch_->Ingest(std::move(trips), accepted, pending, epoch);
}

std::string Server::HandleLine(std::string_view line) {
  {
    core::MutexLock lock(stats_mu_);
    ++frames_total_;
  }
  if (line.size() > options_.max_line_bytes) {
    return RejectFrame(Status::InvalidArgument(
        "frame of " + std::to_string(line.size()) +
        " bytes exceeds the limit of " +
        std::to_string(options_.max_line_bytes)));
  }
  auto parsed = ParseRequest(line, options_.max_batch);
  if (!parsed.ok()) return RejectFrame(parsed.status());
  return HandleParsed(parsed.value());
}

std::string Server::RejectFrame(const Status& status, const Json& id) {
  {
    core::MutexLock lock(stats_mu_);
    ++frames_rejected_;
  }
  return ErrorResponseLine(status, id);
}

std::string Server::HandleParsed(const Request& request) {
  switch (request.op) {
    case Request::Op::kPing: {
      Json frame = Json::Object();
      frame.Set("ok", Json::Bool(true));
      frame.Set("op", Json::String("ping"));
      if (!request.id.is_null()) frame.Set("id", request.id);
      return frame.Dump();
    }
    case Request::Op::kMethods:
      return MethodsLine(request.id);
    case Request::Op::kStats:
      return StatsLine(request.id);
    case Request::Op::kImpute:
    case Request::Op::kImputeBatch:
      return HandleImpute(request);
    case Request::Op::kIngest:
    case Request::Op::kRollover: {
      uint64_t epoch = 0, accepted = 0, pending = 0;
      const Status status =
          ExecuteIngest(request, &epoch, &accepted, &pending);
      if (!status.ok()) return RejectFrame(status, request.id);
      return AckResponseLine(
          request.op == Request::Op::kIngest ? "ingest" : "rollover", epoch,
          accepted, pending, request.id);
    }
  }
  return ErrorResponseLine(Status::Internal("unhandled op"));
}

std::string Server::HandleImpute(const Request& request) {
  auto results = ExecuteImpute(request.op, request.model, request.requests);
  if (!results.ok()) return RejectFrame(results.status(), request.id);
  if (request.op == Request::Op::kImpute) {
    return ImputeResponseLine(results.value().front(), request.id);
  }
  return BatchResponseLine(results.value(), request.id);
}

Result<std::vector<Result<api::ImputeResponse>>> Server::HandleImputeBatch(
    const std::string& model, std::span<const api::ImputeRequest> requests) {
  {
    core::MutexLock lock(stats_mu_);
    ++frames_total_;
  }
  // The checks ParseRequest makes on the same frame's line, in its order.
  Status status = CheckBatchSize(requests.size(), options_.max_batch);
  if (model.empty()) {
    status = Status::InvalidArgument(
        "op 'impute_batch' needs a non-empty string \"model\"");
  }
  if (status.ok()) {
    auto results =
        ExecuteImpute(Request::Op::kImputeBatch, model, requests);
    if (results.ok()) return results;
    status = results.status();
  }
  core::MutexLock lock(stats_mu_);
  ++frames_rejected_;
  return status;
}

Result<std::vector<Result<api::ImputeResponse>>> Server::ExecuteImpute(
    Request::Op op, const std::string& model_spec,
    std::span<const api::ImputeRequest> requests) {
  // Validate every query before touching the cache: an invalid request
  // must never trigger (or wait on) a snapshot load. The whole frame is
  // rejected fail-fast — a client sending garbage gets told so instead of
  // paying for the valid remainder.
  for (size_t i = 0; i < requests.size(); ++i) {
    const Status valid = api::ValidateRequest(requests[i]);
    if (!valid.ok()) {
      // Name the field the client actually sent: "request" for the
      // single-impute op, the failing array index for batches.
      const std::string field = op == Request::Op::kImpute
                                    ? "request"
                                    : "requests[" + std::to_string(i) + "]";
      return Status::InvalidArgument(field + ": " + valid.message());
    }
  }

  auto spec = api::MethodSpec::Parse(model_spec);
  if (!spec.ok()) return spec.status();
  HABIT_RETURN_NOT_OK(CheckServedSpec(spec.value()));
  Result<std::shared_ptr<const api::ImputationModel>> model =
      Status::Internal("unresolved");
  if (epoch_ != nullptr && !spec.value().params.contains("load")) {
    // Live serving: a trips-built spec resolves against the current
    // epoch's cumulative trip set. The EpochedModel pins one epoch for
    // this whole request — a concurrent swap retires the cache entry but
    // never this handle.
    auto epoched = epoch_->Resolve(spec.value());
    if (!epoched.ok()) return epoched.status();
    model = std::move(epoched.value().model);
    core::MutexLock lock(stats_mu_);
    ++model_stats_[spec.value().ToString()].resolves;
  } else {
    model = Resolve(spec.value());
    if (!model.ok()) return model.status();
  }

  // The frame's gaps go to the shared pool through the one batch
  // executor: up to one claim loop per worker, and RunAll's caller helps,
  // so search concurrency stays bounded by the pool size. A pool failure
  // (shutdown, a task that threw) fails each request with its status, so
  // the frame is still answered whole.
  std::vector<double> query_seconds;
  std::vector<Result<api::ImputeResponse>> results =
      model.value()->ImputeBatch(
          requests, &query_seconds,
          [this](size_t workers, const std::function<void()>& body) {
            return pool_.RunAll(std::vector<std::function<void()>>(
                std::min(workers, static_cast<size_t>(pool_.workers())),
                body));
          });

  {
    core::MutexLock lock(stats_mu_);
    ModelStats& stats = model_stats_[spec.value().ToString()];
    for (size_t i = 0; i < results.size(); ++i) {
      if (results[i].ok()) {
        ++stats.queries_ok;
      } else {
        ++stats.queries_failed;
      }
      // Failed queries feed the sketches too: a pathological query that
      // burns the whole A* budget before failing is exactly what a p99
      // should surface.
      const double ms = query_seconds[i] * 1e3;
      stats.latency_p50.Add(ms);
      stats.latency_p99.Add(ms);
      if (requests[i].vessel_id.has_value()) {
        stats.vessels.AddInt(static_cast<uint64_t>(*requests[i].vessel_id));
      }
    }
  }
  return results;
}

std::string Server::HandleFrame(std::string_view payload) {
  auto decoded = frame::DecodeRequestPayload(payload, options_.max_batch,
                                             /*require_model=*/true);
  if (!decoded.ok()) {
    // A malformed payload carries no recoverable id; count the frame and
    // the rejection (HandleLine never saw it).
    {
      core::MutexLock lock(stats_mu_);
      ++frames_total_;
      ++frames_rejected_;
    }
    return frame::EncodeErrorFrame(decoded.status(), Json());
  }
  if (decoded.value().is_json) {
    // The escape hatch: the inner line runs the full JSON dispatch path
    // (which does its own counting) and the response travels back framed.
    return frame::EncodeJsonResponseFrame(HandleLine(decoded.value().json));
  }
  const Request& request = decoded.value().request;
  {
    core::MutexLock lock(stats_mu_);
    ++frames_total_;
  }
  switch (request.op) {
    case Request::Op::kPing:
      return frame::EncodePongFrame(request.id);
    case Request::Op::kMethods:
      return frame::EncodeJsonResponseFrame(MethodsLine(request.id));
    case Request::Op::kStats:
      return frame::EncodeJsonResponseFrame(StatsLine(request.id));
    case Request::Op::kImpute:
    case Request::Op::kImputeBatch: {
      auto results =
          ExecuteImpute(request.op, request.model, request.requests);
      if (!results.ok()) {
        {
          core::MutexLock lock(stats_mu_);
          ++frames_rejected_;
        }
        return frame::EncodeErrorFrame(results.status(), request.id);
      }
      return frame::EncodeResultsFrame(
          results.value(), request.id,
          /*batch=*/request.op == Request::Op::kImputeBatch);
    }
    case Request::Op::kIngest:
    case Request::Op::kRollover: {
      uint64_t epoch = 0, accepted = 0, pending = 0;
      const Status status =
          ExecuteIngest(request, &epoch, &accepted, &pending);
      if (!status.ok()) {
        {
          core::MutexLock lock(stats_mu_);
          ++frames_rejected_;
        }
        return frame::EncodeErrorFrame(status, request.id);
      }
      return frame::EncodeAckFrame(request.op, epoch, accepted, pending,
                                   request.id);
    }
  }
  return frame::EncodeErrorFrame(Status::Internal("unhandled op"), Json());
}

std::string Server::MethodsLine(const Json& id) {
  const api::ModelRegistry& registry = api::ModelRegistry::Global();
  Json frame = Json::Object();
  frame.Set("ok", Json::Bool(true));
  Json methods = Json::Array();
  for (const std::string& name : registry.MethodNames()) {
    Json entry = Json::Object();
    entry.Set("name", Json::String(name));
    entry.Set("description", Json::String(registry.Description(name)));
    methods.Append(std::move(entry));
  }
  frame.Set("methods", std::move(methods));
  if (!id.is_null()) frame.Set("id", id);
  return frame.Dump();
}

std::string Server::StatsLine(const Json& id) {
  const api::ModelCache::Stats cache_stats = cache_.stats();
  Json frame = Json::Object();
  frame.Set("ok", Json::Bool(true));
  Json cache = Json::Object();
  cache.Set("budget_bytes",
            Json::Number(static_cast<double>(cache_.byte_budget())));
  cache.Set("cached_bytes",
            Json::Number(static_cast<double>(cache_.SizeBytes())));
  cache.Set("models", Json::Number(static_cast<double>(cache_.num_models())));
  cache.Set("hits", Json::Number(static_cast<double>(cache_stats.hits)));
  cache.Set("misses", Json::Number(static_cast<double>(cache_stats.misses)));
  cache.Set("evictions",
            Json::Number(static_cast<double>(cache_stats.evictions)));
  cache.Set("coalesced",
            Json::Number(static_cast<double>(cache_stats.coalesced)));
  frame.Set("cache", std::move(cache));
  frame.Set("workers", Json::Number(pool_.workers()));
  if (epoch_ != nullptr) {
    const api::EpochPipeline::Stats es = epoch_->stats();
    Json epoch = Json::Object();
    epoch.Set("spec", Json::String(epoch_->spec_string()));
    epoch.Set("epoch", Json::Number(static_cast<double>(es.epoch)));
    // Builder lag: deltas accepted but not yet in the served epoch.
    epoch.Set("pending_trips",
              Json::Number(static_cast<double>(es.pending_trips)));
    epoch.Set("pending_points",
              Json::Number(static_cast<double>(es.pending_points)));
    epoch.Set("ingested_trips",
              Json::Number(static_cast<double>(es.ingested_trips)));
    epoch.Set("rollovers", Json::Number(static_cast<double>(es.rollovers)));
    epoch.Set("epoch_trips",
              Json::Number(static_cast<double>(es.epoch_trips)));
    epoch.Set("building", Json::Bool(es.building));
    epoch.Set("last_build_ms", Json::Number(es.last_build_seconds * 1e3));
    if (!es.last_error.empty()) {
      epoch.Set("last_error", Json::String(es.last_error));
    }
    frame.Set("epoch", std::move(epoch));
  }

  core::MutexLock lock(stats_mu_);
  frame.Set("frames", Json::Number(static_cast<double>(frames_total_)));
  frame.Set("frames_rejected",
            Json::Number(static_cast<double>(frames_rejected_)));
  Json models = Json::Array();
  for (const auto& [spec, stats] : model_stats_) {
    Json entry = Json::Object();
    entry.Set("model", Json::String(spec));
    entry.Set("resolves", Json::Number(static_cast<double>(stats.resolves)));
    entry.Set("queries_ok",
              Json::Number(static_cast<double>(stats.queries_ok)));
    entry.Set("queries_failed",
              Json::Number(static_cast<double>(stats.queries_failed)));
    // Sketch-backed observability: O(1) memory regardless of traffic.
    // latency_count gates the percentiles (an estimate over <5 samples is
    // just those samples); distinct_vessels only counts requests that
    // carried "vessel".
    entry.Set("latency_count",
              Json::Number(static_cast<double>(stats.latency_p50.count())));
    if (stats.latency_p50.count() > 0) {
      entry.Set("latency_p50_ms", Json::Number(stats.latency_p50.Estimate()));
      entry.Set("latency_p99_ms", Json::Number(stats.latency_p99.Estimate()));
    }
    entry.Set("distinct_vessels", Json::Number(stats.vessels.Estimate()));
    models.Append(std::move(entry));
  }
  frame.Set("models", std::move(models));
  if (!id.is_null()) frame.Set("id", id);
  return frame.Dump();
}

void Server::ServeStream(std::istream& in, std::ostream& out) {
  transport_.ServeStream(in, out);
}

}  // namespace habit::server
