// Tests for util/percentile: the nearest-rank Summarize every latency
// report reads, and the bounded LatencyWindow the shard's solve times and
// the WAL's fsync times record into.
#include "util/percentile.h"

#include <vector>

#include "gtest/gtest.h"

namespace auditgame::util {
namespace {

TEST(PercentileTest, EmptySampleSummarizesToZeros) {
  const Percentiles summary = Summarize({});
  EXPECT_EQ(summary.p50, 0.0);
  EXPECT_EQ(summary.p90, 0.0);
  EXPECT_EQ(summary.p99, 0.0);
  EXPECT_EQ(summary.max, 0.0);
}

TEST(PercentileTest, OneToHundredIsNearestRank) {
  std::vector<double> samples;
  // Descending, so the summary has to sort.
  for (int i = 100; i >= 1; --i) samples.push_back(i);
  const Percentiles summary = Summarize(samples);
  EXPECT_EQ(summary.p50, 50.0);
  EXPECT_EQ(summary.p90, 90.0);
  EXPECT_EQ(summary.p99, 99.0);
  EXPECT_EQ(summary.max, 100.0);
}

TEST(PercentileTest, SingleSampleIsEveryPercentile) {
  const Percentiles summary = Summarize({0.25});
  EXPECT_EQ(summary.p50, 0.25);
  EXPECT_EQ(summary.p90, 0.25);
  EXPECT_EQ(summary.p99, 0.25);
  EXPECT_EQ(summary.max, 0.25);
}

TEST(LatencyWindowTest, KeepsTheLastSamplesAndCountsAll) {
  LatencyWindow window(4);
  EXPECT_EQ(window.count(), 0);
  EXPECT_EQ(window.Summary().max, 0.0);
  // 100 and 200 are overwritten by the last four samples.
  for (double sample : {100.0, 200.0, 1.0, 2.0, 3.0, 4.0}) window.Add(sample);
  EXPECT_EQ(window.count(), 6);
  const Percentiles summary = window.Summary();
  EXPECT_EQ(summary.p50, 2.0);
  EXPECT_EQ(summary.p99, 4.0);
  EXPECT_EQ(summary.max, 4.0);
}

TEST(LatencyWindowTest, ZeroCapacityIsRefused) {
  EXPECT_DEATH(LatencyWindow(0), "LatencyWindow capacity");
}

TEST(LatencyWindowTest, CopySummarizesUnchangedWhileOriginalAdds) {
  LatencyWindow original(8);
  for (double sample : {1.0, 2.0, 3.0}) original.Add(sample);
  const LatencyWindow copy = original;
  for (int i = 0; i < 20; ++i) original.Add(50.0);
  EXPECT_EQ(copy.count(), 3);
  EXPECT_EQ(copy.Summary().p50, 2.0);
  EXPECT_EQ(copy.Summary().max, 3.0);
  EXPECT_EQ(original.count(), 23);
  EXPECT_EQ(original.Summary().max, 50.0);
}

}  // namespace
}  // namespace auditgame::util
