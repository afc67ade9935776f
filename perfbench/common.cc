#include "common.h"

#include <fstream>
#include <unordered_map>

namespace perfbench {

int64_t UnionNs(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cur_start = 0;
  int64_t cur_end = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    if (!open || start > cur_end) {
      if (open) covered += cur_end - cur_start;
      cur_start = start;
      cur_end = end;
      open = true;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (open) covered += cur_end - cur_start;
  return covered;
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(NsToUs(s.end_ns - s.start_ns));
  }
  return out;
}

std::vector<double> Tracer::PerRequestSumUs(const std::string& name) const {
  std::map<int64_t, double> sums;
  for (const Span& s : spans_) {
    if (s.name == name) sums[s.request] += NsToUs(s.end_ns - s.start_ns);
  }
  std::vector<double> out;
  out.reserve(sums.size());
  for (const auto& [request, sum] : sums) out.push_back(sum);
  return out;
}

std::vector<double> Tracer::SelfTimesUs(const std::string& name) const {
  std::unordered_map<int64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != name) continue;
    int64_t covered = 0;
    if (auto it = children.find(static_cast<int64_t>(i));
        it != children.end()) {
      // Clip children to the parent: a child outliving its parent (never
      // expected) must not drive the self time negative.
      std::vector<std::pair<int64_t, int64_t>> clipped;
      for (const auto& [start, end] : it->second) {
        clipped.emplace_back(std::max(start, s.start_ns),
                             std::min(end, s.end_ns));
      }
      covered = UnionNs(std::move(clipped));
    }
    out.push_back(NsToUs(s.end_ns - s.start_ns - covered));
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
