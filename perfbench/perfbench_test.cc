// Self-tests of the benchmark's own machinery: the gap generator is a
// pure function of (trips, options, seed), the reference check catches a
// single flipped bit anywhere in a served answer, and span self times
// subtract overlapping children once.
#include <gtest/gtest.h>

#include <cstring>

#include "api/registry.h"
#include "check.h"
#include "common.h"
#include "eval/harness.h"
#include "gaps.h"
#include "server/frame.h"

namespace perfbench {
namespace {

const habit::eval::Experiment& Kiel() {
  static const habit::eval::Experiment* exp = [] {
    habit::eval::ExperimentOptions options;
    options.scale = 0.3;
    return new habit::eval::Experiment(
        habit::eval::PrepareExperiment("KIEL", options).value());
  }();
  return *exp;
}

GapSetOptions Options() { return {{15 * 60, 60 * 60}, 6, 0.0}; }

TEST(GapSetTest, SameSeedSameGaps) {
  const GapSet a = MakeGapSet(Kiel().test_trips, Options(), 7);
  const GapSet b = MakeGapSet(Kiel().test_trips, Options(), 7);
  ASSERT_FALSE(a.cases.empty());
  ASSERT_EQ(a.cases.size(), b.cases.size());
  EXPECT_EQ(a.bucket_counts, b.bucket_counts);
  for (size_t i = 0; i < a.cases.size(); ++i) {
    EXPECT_EQ(a.cases[i].trip_id, b.cases[i].trip_id);
    EXPECT_EQ(a.cases[i].gap_start.ts, b.cases[i].gap_start.ts);
    EXPECT_EQ(a.cases[i].gap_end.ts, b.cases[i].gap_end.ts);
    EXPECT_EQ(a.cases[i].ground_truth.size(), b.cases[i].ground_truth.size());
  }
  EXPECT_EQ(DescribeGapSet(a), DescribeGapSet(b));
}

TEST(GapSetTest, DifferentSeedDifferentPlacements) {
  const GapSet a = MakeGapSet(Kiel().test_trips, Options(), 7);
  const GapSet b = MakeGapSet(Kiel().test_trips, Options(), 8);
  bool differs = a.cases.size() != b.cases.size();
  for (size_t i = 0; !differs && i < a.cases.size(); ++i) {
    differs = a.cases[i].gap_start.ts != b.cases[i].gap_start.ts;
  }
  EXPECT_TRUE(differs);
}

TEST(GapSetTest, BucketsCountEveryGapAndMinKmFilters) {
  GapSetOptions options = Options();
  const GapSet all = MakeGapSet(Kiel().test_trips, options, 3);
  size_t total = 0;
  for (const size_t c : all.bucket_counts) total += c;
  EXPECT_EQ(total, all.cases.size());
  options.min_km = 5.0;
  const GapSet far = MakeGapSet(Kiel().test_trips, options, 3);
  for (const sim::GapCase& gap : far.cases) EXPECT_GE(GapKm(gap), 5.0);
  EXPECT_EQ(far.bucket_counts[0] + far.bucket_counts[1], 0u);
}

TEST(CheckTest, SingleFlippedBitInAServedFrameIsCaught) {
  auto model = habit::api::MakeModel("habit:r=8", Kiel().train_trips);
  ASSERT_TRUE(model.ok());
  const auto requests =
      GapRequests(MakeGapSet(Kiel().test_trips, Options(), 11));
  ASSERT_GE(requests.size(), 4u);
  const std::vector<ImputeResult> want =
      model.value()->ImputeBatch(requests, nullptr);
  const std::string frame = server::frame::EncodeResultsFrame(
      want, server::Json(), /*batch=*/true);
  const std::string payload = frame.substr(server::frame::kHeaderBytes);
  std::string why;
  ASSERT_TRUE(CheckResultsPayload(payload, want, &why)) << why;
  // Flip every bit of the payload in turn: each flip must either make the
  // frame undecodable or produce an answer the check rejects.
  for (size_t byte = 0; byte < payload.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = payload;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      EXPECT_FALSE(CheckResultsPayload(bad, want, &why))
          << "flip at byte " << byte << " bit " << bit << " went unnoticed";
    }
  }
}

TEST(CheckTest, RoutedLineMustMatchResultsAndRoutes) {
  const std::string line =
      "{\"ok\":true,\"results\":[{\"ok\":true,\"path\":[[1,2]],"
      "\"timestamps\":[0],\"expanded\":3}],\"routes\":[\"shard\"]}";
  const std::vector<std::string> results = {
      "{\"ok\":true,\"path\":[[1,2]],\"timestamps\":[0],\"expanded\":3}"};
  std::string why;
  EXPECT_TRUE(CheckRoutedLine(line, results, {"shard"}, &why)) << why;
  EXPECT_FALSE(CheckRoutedLine(line, results, {"fallback"}, &why));
  const std::vector<std::string> other = {
      "{\"ok\":true,\"path\":[[1,2.0000000000000004]],\"timestamps\":[0],"
      "\"expanded\":3}"};
  EXPECT_FALSE(CheckRoutedLine(line, other, {"shard"}, &why));
}

TEST(TracerTest, SelfTimeSubtractsTheUnionOfChildren) {
  Tracer tracer;
  const int64_t parent = tracer.Record("p", 0, 100000, Tracer::kNoParent, 0);
  tracer.Record("c", 10000, 40000, parent, 0);
  tracer.Record("c", 30000, 60000, parent, 0);  // overlaps the first child
  tracer.Record("c", 90000, 120000, parent, 0);  // clipped to the parent
  const std::vector<double> self = tracer.SelfTimesUs("p");
  ASSERT_EQ(self.size(), 1u);
  EXPECT_DOUBLE_EQ(self[0], 100.0 - 50.0 - 10.0);
  EXPECT_EQ(UnionNs({{0, 10}, {5, 20}, {30, 40}}), 30);
}

}  // namespace
}  // namespace perfbench
