#include "baselines/palmto.h"

#include <algorithm>
#include <cmath>

#include "core/rng.h"
#include "core/stopwatch.h"
#include "graph/snapshot.h"
#include "sketch/hyperloglog.h"

namespace habit::baselines {

uint64_t PalmtoModel::ContextKey(const std::vector<hex::CellId>& window) {
  uint64_t h = 1469598103934665603ULL;
  for (const hex::CellId c : window) {
    h ^= sketch::HyperLogLog::Hash64(c);
    h *= 1099511628211ULL;
  }
  return h;
}

Result<std::unique_ptr<PalmtoModel>> PalmtoModel::Build(
    const std::vector<ais::Trip>& trips, const PalmtoConfig& config) {
  if (trips.empty()) {
    return Status::InvalidArgument("cannot build PaLMTO from zero trips");
  }
  if (config.n < 2) {
    return Status::InvalidArgument("PaLMTO requires n >= 2");
  }
  auto model = std::unique_ptr<PalmtoModel>(new PalmtoModel());
  model->config_ = config;

  for (const ais::Trip& trip : trips) {
    // Tokenize: collapse consecutive duplicate cells.
    std::vector<hex::CellId> tokens;
    for (const ais::AisRecord& r : trip.points) {
      const hex::CellId c = hex::LatLngToCell(r.pos, config.resolution);
      if (tokens.empty() || tokens.back() != c) tokens.push_back(c);
    }
    for (const hex::CellId c : tokens) ++model->unigrams_[c];
    const size_t ctx_len = static_cast<size_t>(config.n - 1);
    if (tokens.size() <= ctx_len) continue;
    std::vector<hex::CellId> window;
    for (size_t i = ctx_len; i < tokens.size(); ++i) {
      window.assign(tokens.begin() + (i - ctx_len), tokens.begin() + i);
      ++model->table_[ContextKey(window)][tokens[i]];
    }
  }
  return model;
}

Result<geo::Polyline> PalmtoModel::Impute(const geo::LatLng& gap_start,
                                          const geo::LatLng& gap_end) const {
  const hex::CellId src = hex::LatLngToCell(gap_start, config_.resolution);
  const hex::CellId dst = hex::LatLngToCell(gap_end, config_.resolution);
  if (src == hex::kInvalidCell || dst == hex::kInvalidCell) {
    return Status::InvalidArgument("endpoints not mappable to cells");
  }

  // Per-call sampling state, derived from the model seed and the query
  // endpoints: the same gap always walks the same path (repeated calls,
  // batch workers, loaded snapshots), and concurrent Impute calls share no
  // mutable state.
  Rng rng(config_.seed ^ sketch::HyperLogLog::Hash64(src) ^
          (sketch::HyperLogLog::Hash64(dst) * 0x9E3779B97F4A7C15ULL));

  Stopwatch timer;
  std::vector<hex::CellId> generated{src};
  const size_t ctx_len = static_cast<size_t>(config_.n - 1);
  // (cell, count) candidates for the next token, rebuilt per step. Sorted
  // by cell id before sampling so the draw is independent of the count
  // tables' hash-map iteration order.
  std::vector<std::pair<hex::CellId, uint32_t>> candidates;

  while (generated.back() != dst) {
    if (timer.ElapsedSeconds() > config_.timeout_seconds ||
        static_cast<int>(generated.size()) >= config_.max_tokens) {
      return Status::Timeout("PaLMTO generation exceeded budget");
    }
    // Context = last n-1 tokens (shorter near the start -> back-off).
    candidates.clear();
    if (generated.size() >= ctx_len) {
      std::vector<hex::CellId> window(generated.end() - ctx_len,
                                      generated.end());
      auto it = table_.find(ContextKey(window));
      if (it != table_.end()) {
        candidates.assign(it->second.begin(), it->second.end());
      }
    }
    if (candidates.empty()) {
      // Back-off: bigram-like neighborhood from unigram counts over the
      // 6 adjacent cells.
      for (const hex::CellId c : hex::Neighbors(generated.back())) {
        auto u = unigrams_.find(c);
        if (u != unigrams_.end()) candidates.emplace_back(c, u->second);
      }
      if (candidates.empty()) {
        return Status::Timeout("PaLMTO: dead-end context with no back-off");
      }
    }
    std::sort(candidates.begin(), candidates.end());

    // Sample the next token, weighting counts by progress toward the
    // destination (distance-guided decoding).
    double total = 0;
    std::vector<std::pair<hex::CellId, double>> weighted;
    weighted.reserve(candidates.size());
    const geo::LatLng target = hex::CellToLatLng(dst);
    for (const auto& [cell, count] : candidates) {
      const double d = geo::HaversineMeters(hex::CellToLatLng(cell), target);
      const double w = static_cast<double>(count) / (1.0 + d / 1000.0);
      weighted.emplace_back(cell, w);
      total += w;
    }
    double pick = rng.Uniform(0.0, total);
    hex::CellId next = weighted.back().first;
    for (const auto& [cell, w] : weighted) {
      pick -= w;
      if (pick <= 0) {
        next = cell;
        break;
      }
    }
    generated.push_back(next);
  }

  geo::Polyline out;
  out.push_back(gap_start);
  for (size_t i = 1; i + 1 < generated.size(); ++i) {
    out.push_back(hex::CellToLatLng(generated[i]));
  }
  out.push_back(gap_end);
  return out;
}

Status PalmtoModel::Save(const std::string& path) const {
  graph::SnapshotWriter writer;
  writer.I64(config_.resolution);
  writer.I64(config_.n);
  writer.F64(config_.timeout_seconds);
  writer.I64(config_.max_tokens);
  writer.U64(config_.seed);

  // Flatten the hash tables into sorted parallel arrays so the snapshot is
  // byte-stable for a given model (equal models -> equal checksums, the
  // fingerprint property the model cache keys on).
  std::vector<hex::CellId> unigram_cells;
  unigram_cells.reserve(unigrams_.size());
  for (const auto& [cell, count] : unigrams_) unigram_cells.push_back(cell);
  std::sort(unigram_cells.begin(), unigram_cells.end());
  std::vector<uint32_t> unigram_counts;
  unigram_counts.reserve(unigram_cells.size());
  for (const hex::CellId cell : unigram_cells) {
    unigram_counts.push_back(unigrams_.at(cell));
  }
  writer.Array(unigram_cells);
  writer.Array(unigram_counts);

  std::vector<uint64_t> context_keys;
  context_keys.reserve(table_.size());
  for (const auto& [key, nexts] : table_) context_keys.push_back(key);
  std::sort(context_keys.begin(), context_keys.end());
  std::vector<uint32_t> context_sizes;
  std::vector<hex::CellId> next_cells;
  std::vector<uint32_t> next_counts;
  context_sizes.reserve(context_keys.size());
  for (const uint64_t key : context_keys) {
    const auto& nexts = table_.at(key);
    context_sizes.push_back(static_cast<uint32_t>(nexts.size()));
    const size_t first = next_cells.size();
    for (const auto& [cell, count] : nexts) next_cells.push_back(cell);
    std::sort(next_cells.begin() + first, next_cells.end());
    for (size_t i = first; i < next_cells.size(); ++i) {
      next_counts.push_back(nexts.at(next_cells[i]));
    }
  }
  writer.Array(context_keys);
  writer.Array(context_sizes);
  writer.Array(next_cells);
  writer.Array(next_counts);
  return writer.WriteToFile(path, graph::SnapshotKind::kPalmto);
}

Result<std::unique_ptr<PalmtoModel>> PalmtoModel::Load(
    const std::string& path, bool mapped) {
  HABIT_ASSIGN_OR_RETURN(
      graph::SnapshotReader reader,
      graph::SnapshotReader::Open(path, graph::SnapshotKind::kPalmto,
                                  mapped));
  auto model = std::unique_ptr<PalmtoModel>(new PalmtoModel());
  HABIT_ASSIGN_OR_RETURN(const int64_t resolution, reader.I64());
  HABIT_ASSIGN_OR_RETURN(const int64_t n, reader.I64());
  HABIT_ASSIGN_OR_RETURN(model->config_.timeout_seconds, reader.F64());
  HABIT_ASSIGN_OR_RETURN(const int64_t max_tokens, reader.I64());
  HABIT_ASSIGN_OR_RETURN(model->config_.seed, reader.U64());
  model->config_.resolution = static_cast<int>(resolution);
  model->config_.n = static_cast<int>(n);
  model->config_.max_tokens = static_cast<int>(max_tokens);
  if (model->config_.resolution < 0 ||
      model->config_.resolution > hex::kMaxResolution ||
      model->config_.n < 2) {
    return Status::IoError("PaLMTO snapshot '" + path +
                           "' carries an invalid configuration");
  }

  std::vector<hex::CellId> unigram_cells;
  std::vector<uint32_t> unigram_counts;
  HABIT_RETURN_NOT_OK(reader.Array(&unigram_cells));
  HABIT_RETURN_NOT_OK(reader.Array(&unigram_counts));
  if (unigram_cells.size() != unigram_counts.size()) {
    return Status::IoError("PaLMTO snapshot '" + path +
                           "': unigram arrays misaligned");
  }
  model->unigrams_.reserve(unigram_cells.size());
  for (size_t i = 0; i < unigram_cells.size(); ++i) {
    model->unigrams_.emplace(unigram_cells[i], unigram_counts[i]);
  }

  std::vector<uint64_t> context_keys;
  std::vector<uint32_t> context_sizes;
  std::vector<hex::CellId> next_cells;
  std::vector<uint32_t> next_counts;
  HABIT_RETURN_NOT_OK(reader.Array(&context_keys));
  HABIT_RETURN_NOT_OK(reader.Array(&context_sizes));
  HABIT_RETURN_NOT_OK(reader.Array(&next_cells));
  HABIT_RETURN_NOT_OK(reader.Array(&next_counts));
  if (!reader.AtEnd()) {
    return Status::IoError("PaLMTO snapshot '" + path +
                           "' has trailing bytes");
  }
  uint64_t total = 0;
  for (const uint32_t size : context_sizes) total += size;
  if (context_keys.size() != context_sizes.size() ||
      next_cells.size() != next_counts.size() || next_cells.size() != total) {
    return Status::IoError("PaLMTO snapshot '" + path +
                           "': n-gram arrays misaligned");
  }
  model->table_.reserve(context_keys.size());
  size_t pos = 0;
  for (size_t c = 0; c < context_keys.size(); ++c) {
    auto& nexts = model->table_[context_keys[c]];
    nexts.reserve(context_sizes[c]);
    for (uint32_t i = 0; i < context_sizes[c]; ++i, ++pos) {
      nexts.emplace(next_cells[pos], next_counts[pos]);
    }
  }
  return model;
}

size_t PalmtoModel::SizeBytes() const {
  size_t bytes = unigrams_.size() * (sizeof(hex::CellId) + sizeof(uint32_t) + 16);
  for (const auto& [ctx, nexts] : table_) {
    bytes += sizeof(uint64_t) + 48 +
             nexts.size() * (sizeof(hex::CellId) + sizeof(uint32_t) + 16);
  }
  return bytes;
}

}  // namespace habit::baselines
