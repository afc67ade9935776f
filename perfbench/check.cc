#include "check.h"

#include <cstring>

#include "server/frame.h"
#include "server/json.h"

namespace perfbench {

namespace {

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

bool SameResult(const ImputeResult& got, const ImputeResult& want,
                std::string* why) {
  if (got.ok() != want.ok()) {
    *why = got.ok() ? "answered, reference failed: " + want.status().ToString()
                    : "failed (" + got.status().ToString() +
                          "), reference answered";
    return false;
  }
  if (!got.ok()) {
    if (got.status().code() != want.status().code() ||
        got.status().message() != want.status().message()) {
      *why = "error " + got.status().ToString() + " != reference " +
             want.status().ToString();
      return false;
    }
    return true;
  }
  const api::ImputeResponse& g = got.value();
  const api::ImputeResponse& w = want.value();
  if (g.path.size() != w.path.size()) {
    *why = "path has " + std::to_string(g.path.size()) + " points, reference " +
           std::to_string(w.path.size());
    return false;
  }
  for (size_t i = 0; i < g.path.size(); ++i) {
    if (!SameBits(g.path[i].lat, w.path[i].lat) ||
        !SameBits(g.path[i].lng, w.path[i].lng)) {
      *why = "path point " + std::to_string(i) + " differs";
      return false;
    }
  }
  if (g.timestamps != w.timestamps) {
    *why = "timestamps differ";
    return false;
  }
  if (g.expanded != w.expanded) {
    *why = "expanded " + std::to_string(g.expanded) + " != reference " +
           std::to_string(w.expanded);
    return false;
  }
  return true;
}

bool CheckResultsPayload(std::string_view payload,
                         std::span<const ImputeResult> want,
                         std::string* why) {
  auto decoded = server::frame::DecodeResponsePayload(payload);
  if (!decoded.ok()) {
    *why = "undecodable response: " + decoded.status().ToString();
    return false;
  }
  const server::frame::FrameResponse& response = decoded.value();
  if (response.tag != server::frame::ResponseTag::kResults) {
    *why = "frame rejected: " + (response.tag == server::frame::ResponseTag::kError
                                     ? response.error.ToString()
                                     : std::string("unexpected tag"));
    return false;
  }
  if (!response.batch || response.results.size() != want.size()) {
    *why = std::to_string(response.results.size()) + " results for a batch of " +
           std::to_string(want.size());
    return false;
  }
  // The wire bytes must be the canonical encoding of what they decode to:
  // flag bytes carry one meaningful bit, and a flip in the others would
  // otherwise decode to the same answer unnoticed.
  const std::string canonical = server::frame::EncodeResultsFrame(
      response.results, response.id, /*batch=*/true);
  if (std::string_view(canonical).substr(server::frame::kHeaderBytes) !=
      payload) {
    *why = "response bytes are not the canonical encoding of their answer";
    return false;
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (!SameResult(response.results[i], want[i], why)) {
      *why = "result " + std::to_string(i) + ": " + *why;
      return false;
    }
  }
  return true;
}

bool CheckRoutedLine(std::string_view line,
                     const std::vector<std::string>& want_results,
                     const std::vector<std::string>& want_routes,
                     std::string* why) {
  auto parsed = server::Json::Parse(line);
  if (!parsed.ok()) {
    *why = "unparseable routed response";
    return false;
  }
  const server::Json& frame = parsed.value();
  const server::Json* ok = frame.Find("ok");
  const server::Json* results = frame.Find("results");
  const server::Json* routes = frame.Find("routes");
  if (ok == nullptr || !ok->is_bool() || !ok->bool_value() ||
      results == nullptr || !results->is_array() || routes == nullptr ||
      !routes->is_array()) {
    *why = "routed frame rejected: " + std::string(line.substr(0, 200));
    return false;
  }
  if (results->items().size() != want_results.size() ||
      routes->items().size() != want_routes.size()) {
    *why = "routed result count differs from the request count";
    return false;
  }
  for (size_t i = 0; i < want_results.size(); ++i) {
    if (results->items()[i].Dump() != want_results[i]) {
      *why = "routed result " + std::to_string(i) +
             " differs from in-process serving of its snapshot";
      return false;
    }
    const server::Json& route = routes->items()[i];
    const bool fallback = want_routes[i] == "fallback";
    if (!route.is_string() ||
        (fallback ? route.string_value() != "fallback"
                  : route.string_value() != "shard" &&
                        route.string_value() != "halo")) {
      *why = "route " + std::to_string(i) + " is not " +
             (fallback ? "fallback" : "shard or halo");
      return false;
    }
  }
  return true;
}

bool CheckResultsShape(std::string_view payload, size_t expected,
                       std::string* why) {
  auto decoded = server::frame::DecodeResponsePayload(payload);
  if (!decoded.ok() ||
      decoded.value().tag != server::frame::ResponseTag::kResults) {
    *why = "live frame rejected or undecodable";
    return false;
  }
  const auto& results = decoded.value().results;
  if (results.size() != expected) {
    *why = "live frame result count differs from the request count";
    return false;
  }
  for (const ImputeResult& r : results) {
    if (!r.ok()) {
      if (r.status().code() != habit::StatusCode::kUnreachable) {
        *why = "live query failed: " + r.status().ToString();
        return false;
      }
      continue;
    }
    if (r.value().path.size() < 2 ||
        r.value().timestamps.size() != r.value().path.size()) {
      *why = "live answer is not a timed path";
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
