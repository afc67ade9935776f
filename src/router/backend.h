// Where the router sends a sub-frame: a ShardBackend is one habit_serve
// address space (or the in-process equivalent). The router holds one
// backend per serving process and maps shards onto them
// deterministically; which MODEL a backend answers with is chosen
// per-request by the model spec ("habit:load=<shard snapshot>"), so any
// backend can serve any shard — backends are capacity, the manifest is
// placement.
//
// Impute sub-frames go through ShardBackend::Impute: requests in,
// per-request result objects out. Its default speaks the NDJSON line
// protocol through Call (one impute_batch line out, one response line
// parsed back), which is all a backend that overrides only Call and
// Describe gets. The in-process LocalBackend and binary-negotiated
// RemoteBackend connections override it and carry no JSON at all, so a
// routed frame is parsed once and rendered once, by the router's own
// front end. Ingest and rollover forwarding stay on Call.
//
// RemoteBackend pools LineClient connections (one in-flight call per
// pooled connection; concurrent calls open additional connections — cheap
// on the server's epoll loop — and park them for reuse). With
// ClientOptions::binary each fresh connection negotiates the binary frame
// protocol at connect and falls back to JSON against an old server. A
// failed call surfaces a Status and discards the connection — the
// router's retry-once-then-degrade policy decides what happens next, not
// the transport.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/imputation_model.h"
#include "core/status.h"
#include "core/sync.h"
#include "core/thread_annotations.h"
#include "server/line_client.h"
#include "server/server.h"

namespace habit::router {

/// \brief One serving address space the router can send a frame to.
class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  /// One protocol round trip: request line in, response line out.
  /// Non-OK only for TRANSPORT failures (connect/send/recv/timeout);
  /// protocol-level errors come back as ok:false response lines.
  virtual Result<std::string> Call(const std::string& line) = 0;

  /// Human-readable address ("local", "port 7761") for error messages.
  virtual std::string Describe() const = 0;

  /// One impute_batch sub-frame: `requests` answered by the model `model`
  /// names. OK holds one result object per request, in order, shaped as
  /// in a batch response's "results" array. kUnreachable for transport
  /// failures; kInternal when the backend rejected the frame ("<Describe()>
  /// rejected the sub-frame: <message>") or answered outside the
  /// protocol. The default sends EncodeImputeBatchRequest(model, requests)
  /// through Call and parses the response line.
  virtual Result<std::vector<server::Json>> Impute(
      const std::string& model, std::span<const api::ImputeRequest> requests);
};

/// \brief In-process backend: frames go straight to a server::Server's
/// dispatch path — no sockets, no serve fleet. This is `habit_route
/// --local` (tests, CI, single-machine deployments): one process-wide
/// ModelCache holds every shard model, and neither Call nor Impute ever
/// fails at the transport level. Impute hands the requests to
/// Server::HandleImputeBatch as they are.
class LocalBackend : public ShardBackend {
 public:
  /// `server` must outlive the backend.
  explicit LocalBackend(server::Server* server) : server_(server) {}

  Result<std::string> Call(const std::string& line) override {
    return server_->HandleLine(line);
  }
  std::string Describe() const override { return "local"; }
  Result<std::vector<server::Json>> Impute(
      const std::string& model,
      std::span<const api::ImputeRequest> requests) override;

 private:
  server::Server* server_;
};

/// \brief Loopback-TCP backend over pooled LineClient connections.
/// Impute sends a binary impute_batch frame on a connection that
/// negotiated binary, and takes the default line path on a JSON one.
class RemoteBackend : public ShardBackend {
 public:
  RemoteBackend(uint16_t port, const server::ClientOptions& options)
      : port_(port), options_(options) {}

  Result<std::string> Call(const std::string& line) override
      EXCLUDES(mu_);
  std::string Describe() const override {
    return "port " + std::to_string(port_);
  }
  Result<std::vector<server::Json>> Impute(
      const std::string& model,
      std::span<const api::ImputeRequest> requests) override EXCLUDES(mu_);

 private:
  /// Runs `exchange` on a parked connection or a fresh one and parks the
  /// connection again when it succeeds. A parked connection that fails
  /// gets one transparent reconnect; a fresh one does not. kUnreachable
  /// names the last transport error.
  Status RoundTrip(const std::function<bool(server::LineClient*)>& exchange)
      EXCLUDES(mu_);

  uint16_t port_;
  server::ClientOptions options_;
  core::Mutex mu_;
  /// Parked connections with no call in flight. A connection that failed
  /// mid-call is never parked — the next call reconnects rather than
  /// inheriting a poisoned stream position.
  std::vector<std::unique_ptr<server::LineClient>> idle_ GUARDED_BY(mu_);
};

}  // namespace habit::router
