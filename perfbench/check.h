// Reference checks: every answer the benchmark times is compared with an
// in-process reference for the same requests. Doubles compare bit for bit
// (a served path must be the in-process path, not an approximation of
// it); timestamps and search effort (`expanded`) must match exactly; an
// error answer matches only the same status code and message, so an
// Unreachable gap is correct when the reference is Unreachable too.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "api/imputation_model.h"
#include "common.h"
#include "core/status.h"

namespace perfbench {

using ImputeResult = habit::Result<api::ImputeResponse>;

/// True when `got` equals `want` bit for bit; otherwise `why` says where
/// they first differ.
bool SameResult(const ImputeResult& got, const ImputeResult& want,
                std::string* why);

/// Decodes one served binary response payload (frame header stripped) and
/// compares every result with `want`, in order. A frame-level error, a
/// wrong result count or any differing result fails the frame.
bool CheckResultsPayload(std::string_view payload,
                         std::span<const ImputeResult> want, std::string* why);

/// Checks a routed JSON batch response: ok:true, one result per request
/// whose canonical JSON equals `want_results[i]` (the in-process answer
/// rendered through the protocol encoder — Json::Dump prints doubles in
/// shortest round-trip form, so string equality is bit equality) and one
/// route per request: "fallback" where `want_routes[i]` is "fallback",
/// "shard" or "halo" where it is "shard" (a shard answered).
bool CheckRoutedLine(std::string_view line,
                     const std::vector<std::string>& want_results,
                     const std::vector<std::string>& want_routes,
                     std::string* why);

/// Structural check for answers with no fixed reference (live traffic
/// during an epoch change): a results frame with one result per request,
/// each either a path with matching timestamps or an Unreachable error.
bool CheckResultsShape(std::string_view payload, size_t expected,
                       std::string* why);

}  // namespace perfbench
