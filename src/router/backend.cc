#include "router/backend.h"

#include <utility>

#include "server/frame.h"
#include "server/protocol.h"

namespace habit::router {

using server::Json;

namespace {

Status Rejected(const ShardBackend& backend, const std::string& message) {
  return Status::Internal(backend.Describe() +
                          " rejected the sub-frame: " + message);
}

Status NonProtocol(const ShardBackend& backend) {
  return Status::Internal(backend.Describe() +
                          " answered with a non-protocol frame");
}

Status Mismatched(const ShardBackend& backend) {
  return Status::Internal(backend.Describe() +
                          " answered with a mismatched results array");
}

std::vector<Json> ResultsToJson(
    std::span<const Result<api::ImputeResponse>> results) {
  std::vector<Json> out;
  out.reserve(results.size());
  for (const Result<api::ImputeResponse>& result : results) {
    out.push_back(server::ImputeResultToJson(result));
  }
  return out;
}

// The backend speaks the protocol we speak; anything else (a port that
// answers but is not habit_serve, a truncated line) is a backend failure,
// handled exactly like an unreachable one.
Result<std::vector<Json>> ResultsFromLine(const ShardBackend& backend,
                                          const std::string& line,
                                          size_t expected) {
  auto parsed = Json::Parse(line);
  if (!parsed.ok()) {
    return Status::Internal(backend.Describe() +
                            " answered with a non-protocol line: " +
                            parsed.status().message());
  }
  const Json* ok = parsed.value().Find("ok");
  if (ok == nullptr || !ok->is_bool()) return NonProtocol(backend);
  if (!ok->bool_value()) {
    const Json* error = parsed.value().Find("error");
    const Json* message =
        error != nullptr ? error->Find("message") : nullptr;
    return Rejected(backend, message != nullptr && message->is_string()
                                 ? message->string_value()
                                 : "unknown error");
  }
  const Json* results = parsed.value().Find("results");
  if (results == nullptr || !results->is_array() ||
      results->items().size() != expected) {
    return Mismatched(backend);
  }
  return results->items();
}

Result<std::vector<Json>> ResultsFromFrame(
    const ShardBackend& backend, const server::frame::FrameResponse& response,
    size_t expected) {
  switch (response.tag) {
    case server::frame::ResponseTag::kError:
      return Rejected(backend, response.error.message());
    case server::frame::ResponseTag::kResults:
      if (!response.batch || response.results.size() != expected) {
        return Mismatched(backend);
      }
      return ResultsToJson(response.results);
    default:
      return NonProtocol(backend);
  }
}

}  // namespace

Result<std::vector<Json>> ShardBackend::Impute(
    const std::string& model, std::span<const api::ImputeRequest> requests) {
  HABIT_ASSIGN_OR_RETURN(
      const std::string response,
      Call(server::EncodeImputeBatchRequest(model, requests)));
  return ResultsFromLine(*this, response, requests.size());
}

Result<std::vector<Json>> LocalBackend::Impute(
    const std::string& model, std::span<const api::ImputeRequest> requests) {
  auto results = server_->HandleImputeBatch(model, requests);
  if (!results.ok()) return Rejected(*this, results.status().message());
  return ResultsToJson(results.value());
}

Status RemoteBackend::RoundTrip(
    const std::function<bool(server::LineClient*)>& exchange) {
  std::unique_ptr<server::LineClient> client;
  {
    core::MutexLock lock(mu_);
    if (!idle_.empty()) {
      client = std::move(idle_.back());
      idle_.pop_back();
    }
  }
  const bool fresh = client == nullptr;
  if (fresh) {
    client = std::make_unique<server::LineClient>(port_, options_);
    if (!client->connected()) {
      return Status::Unreachable(Describe() + ": " + client->last_error());
    }
  }
  if (!exchange(client.get())) {
    // A parked connection may have been idle-closed by a restarting
    // backend; one transparent reconnect distinguishes that from the
    // backend actually being down. Fresh connections get no such retry —
    // their failure IS the signal the router's degrade policy wants.
    if (fresh) {
      return Status::Unreachable(Describe() + ": " + client->last_error());
    }
    client = std::make_unique<server::LineClient>(port_, options_);
    if (!client->connected() || !exchange(client.get())) {
      return Status::Unreachable(Describe() + ": " + client->last_error());
    }
  }
  core::MutexLock lock(mu_);
  idle_.push_back(std::move(client));
  return Status::OK();
}

Result<std::string> RemoteBackend::Call(const std::string& line) {
  std::string response;
  HABIT_RETURN_NOT_OK(RoundTrip([&](server::LineClient* client) {
    return client->Call(line, &response);
  }));
  return response;
}

Result<std::vector<Json>> RemoteBackend::Impute(
    const std::string& model, std::span<const api::ImputeRequest> requests) {
  if (!options_.binary) return ShardBackend::Impute(model, requests);
  server::Request request;
  request.op = server::Request::Op::kImputeBatch;
  request.model = model;
  request.requests.assign(requests.begin(), requests.end());
  const std::string frame_bytes = server::frame::EncodeRequestFrame(request);
  // A connection whose server answered the probe in JSON takes the line
  // path.
  bool binary = true;
  std::string line;
  server::frame::FrameResponse response;
  HABIT_RETURN_NOT_OK(RoundTrip([&](server::LineClient* client) {
    binary = client->binary();
    if (binary) return client->CallBinary(frame_bytes, &response);
    return client->Call(server::EncodeImputeBatchRequest(model, requests),
                        &line);
  }));
  if (!binary) return ResultsFromLine(*this, line, requests.size());
  return ResultsFromFrame(*this, response, requests.size());
}

}  // namespace habit::router
