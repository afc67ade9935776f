#include "api/imputation_model.h"

#include <algorithm>
#include <atomic>
#include <system_error>
#include <thread>
#include <utility>

#include "core/stopwatch.h"
#include "graph/search.h"

namespace habit::api {

namespace {

// An absurd threads= value must not exhaust OS threads.
constexpr size_t kMaxBatchWorkers = 64;

// The in-process worker source behind threads=N: the calling thread plus
// up to `workers` - 1 spawned ones. A spawn the OS refuses leaves fewer
// workers; those already running claim the rest of the batch.
Status RunOnThreads(size_t workers, const std::function<void()>& body) {
  std::vector<std::jthread> spawned;  // joined on every exit path
  spawned.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) {
    try {
      spawned.emplace_back(body);
    } catch (const std::system_error&) {
      break;
    }
  }
  body();
  return Status::OK();
}

}  // namespace

Status ValidateRequest(const ImputeRequest& request) {
  if (!request.gap_start.IsValid() || !request.gap_end.IsValid()) {
    return Status::InvalidArgument("invalid gap endpoint " +
                                   request.gap_start.ToString() + " -> " +
                                   request.gap_end.ToString());
  }
  for (const int64_t t : {request.t_start, request.t_end}) {
    if (t < -kMaxAbsTimestamp || t > kMaxAbsTimestamp) {
      return Status::InvalidArgument(
          "gap timestamp " + std::to_string(t) +
          " is outside [-2^53, 2^53] (|t| <= " +
          std::to_string(kMaxAbsTimestamp) + ")");
    }
  }
  if (request.t_end < request.t_start) {
    return Status::InvalidArgument(
        "gap time span is negative (t_start=" +
        std::to_string(request.t_start) +
        " > t_end=" + std::to_string(request.t_end) + ")");
  }
  return Status::OK();
}

Result<ImputeResponse> ImputationModel::Impute(
    const ImputeRequest& request) const {
  HABIT_RETURN_NOT_OK(ValidateRequest(request));
  graph::SearchScratch scratch;
  return ImputeValidated(request, &scratch);
}

uint64_t ImputationModel::ClaimKey(const ImputeRequest& /*request*/) const {
  return 0;
}

std::vector<Result<ImputeResponse>> ImputationModel::ImputeBatch(
    std::span<const ImputeRequest> requests,
    std::vector<double>* query_seconds, const WorkerSource& workers) const {
  const size_t n = requests.size();
  std::vector<Result<ImputeResponse>> responses(
      n, Result<ImputeResponse>(Status::Internal("request not processed")));
  std::vector<double> seconds(n, 0.0);
  // (key, input index) pairs: sorting them claims in key order with ties
  // in input order, one ClaimKey call per request.
  std::vector<std::pair<uint64_t, size_t>> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = {ClaimKey(requests[i]), i};
  std::sort(order.begin(), order.end());

  std::atomic<size_t> cursor{0};
  const std::function<void()> body = [&] {
    graph::SearchScratch scratch;  // this worker's, for this call only
    for (size_t pos = cursor.fetch_add(1, std::memory_order_relaxed); pos < n;
         pos = cursor.fetch_add(1, std::memory_order_relaxed)) {
      const size_t i = order[pos].second;
      Stopwatch sw;
      const Status valid = ValidateRequest(requests[i]);
      responses[i] =
          valid.ok() ? ImputeValidated(requests[i], &scratch) : valid;
      seconds[i] = sw.ElapsedSeconds();
    }
  };
  if (n > 0) {
    const Status run =
        workers ? workers(n, body)
                : RunOnThreads(std::min({static_cast<size_t>(batch_threads_),
                                         n, kMaxBatchWorkers}),
                               body);
    if (!run.ok()) {
      responses.assign(n, run);
      seconds.assign(n, 0.0);
    }
  }
  if (query_seconds != nullptr) *query_seconds = std::move(seconds);
  return responses;
}

}  // namespace habit::api
