#include "harness.h"

#include <gtest/gtest.h>

#include <vector>

namespace rasql::perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> out;
  for (int i = 1; i <= n; ++i) out.push_back(i);
  return out;
}

TEST(PercentileTest, NearestRankAndSamplesBeyond) {
  const std::vector<double> sample = OneTo(1000);
  const Percentile p99 = PercentileOf(sample, 99);
  EXPECT_EQ(p99.value, 990);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_TRUE(p99.supported);

  const Percentile p50 = PercentileOf(OneTo(5), 50);
  EXPECT_EQ(p50.value, 3);  // rank ceil(2.5) = 3
  EXPECT_EQ(p50.beyond, 2u);
  EXPECT_FALSE(p50.supported);

  EXPECT_EQ(PercentileOf({}, 90).samples, 0u);
  EXPECT_FALSE(PercentileOf({}, 90).supported);
}

TEST(PercentileTest, HighestWithTenSamplesBeyond) {
  // 400 samples: p99 leaves 4 beyond, p90 leaves 40 — p90 is the tail.
  Percentile tail = HighestSupported(OneTo(400));
  EXPECT_EQ(tail.percentile, 90);
  EXPECT_EQ(tail.value, 360);
  EXPECT_EQ(tail.beyond, 40u);
  EXPECT_EQ(tail.samples, 400u);

  // 999 samples: p99 is rank 990 with 9 beyond — one short.
  EXPECT_EQ(HighestSupported(OneTo(999)).percentile, 90);
  EXPECT_EQ(HighestSupported(OneTo(1000)).percentile, 99);
  EXPECT_EQ(HighestSupported(OneTo(10000)).percentile, 99.9);

  // Too few samples for any rung: the first rung, flagged unsupported.
  tail = HighestSupported(OneTo(15));
  EXPECT_EQ(tail.percentile, 50);
  EXPECT_FALSE(tail.supported);
}

TEST(MedianTest, OddEvenAndEmpty) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(WindowRatesTest, CountsPerWindowPerSecondAndDropsLateEvents) {
  // Four 0.5 s windows over 2 s; 2.0 and 2.5 lie past the end.
  const std::vector<double> rates =
      WindowRates({0.1, 0.2, 0.4, 0.6, 1.2, 1.3, 1.4, 1.99, 2.0, 2.5}, 2.0, 4);
  ASSERT_EQ(rates.size(), 4u);
  EXPECT_DOUBLE_EQ(rates[0], 6.0);
  EXPECT_DOUBLE_EQ(rates[1], 2.0);
  EXPECT_DOUBLE_EQ(rates[2], 6.0);
  EXPECT_DOUBLE_EQ(rates[3], 2.0);
  EXPECT_DOUBLE_EQ(Median(rates), 4.0);
  EXPECT_TRUE(WindowRates({1.0}, 0.0, 3) == std::vector<double>(3, 0.0));
  EXPECT_TRUE(WindowRates({1.0}, 2.0, 0).empty());
}

TEST(TallyTest, FailedFracCountsEveryFailureKindOnce) {
  Tally tally;
  EXPECT_EQ(tally.FailedFrac(), 0);
  for (int i = 0; i < 6; ++i) tally.Record(Tally::Outcome::kOk);
  tally.Record(Tally::Outcome::kError);
  tally.Record(Tally::Outcome::kWrong);
  tally.Record(Tally::Outcome::kTruncated);
  tally.Record(Tally::Outcome::kTruncated);
  EXPECT_EQ(tally.attempted(), 10u);
  EXPECT_EQ(tally.failed(), 4u);
  EXPECT_DOUBLE_EQ(tally.FailedFrac(), 0.4);

  Tally other;
  other.Record(Tally::Outcome::kOk);
  other.Record(Tally::Outcome::kWrong);
  tally.Merge(other);
  EXPECT_EQ(tally.attempted(), 12u);
  EXPECT_EQ(tally.wrong(), 2u);
  EXPECT_DOUBLE_EQ(tally.FailedFrac(), 5.0 / 12.0);
}

Span MakeSpan(double start, double end, int64_t parent) {
  Span span;
  span.start = start;
  span.end = end;
  span.parent = parent;
  return span;
}

TEST(SelfTimeTest, SubtractsUnionOfChildren) {
  const std::vector<Span> spans = {
      MakeSpan(0, 10, -1),  // root
      MakeSpan(1, 3, 0),    // child
      MakeSpan(2, 5, 0),    // overlapping child: union [1, 5)
      MakeSpan(7, 8, 0),    // disjoint child
      MakeSpan(2, 2.5, 2),  // grandchild: not the root's child
      MakeSpan(9, 12, 0),   // overhangs the root: clipped to [9, 10)
  };
  const std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 10 - 4 - 1 - 1);
  EXPECT_DOUBLE_EQ(self[1], 2);
  EXPECT_DOUBLE_EQ(self[2], 3 - 0.5);
  EXPECT_DOUBLE_EQ(self[3], 1);
  EXPECT_DOUBLE_EQ(self[4], 0.5);
}

TEST(TracerTest, NestsSpansAndRecordsNothingWhenDisabled) {
  Tracer tracer(true);
  {
    ScopedSpan outer(&tracer, "outer", -1, 7);
    ScopedSpan inner(&tracer, "inner", outer.index(), 7);
  }
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].request, 7u);
  EXPECT_LE(spans[0].start, spans[1].start);
  EXPECT_GE(spans[0].end, spans[1].end);

  Tracer off(false);
  { ScopedSpan span(&off, "x", -1, 1); }
  EXPECT_TRUE(off.spans().empty());
}

}  // namespace
}  // namespace rasql::perfbench
