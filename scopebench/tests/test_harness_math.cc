// Tests of the benchmark's arithmetic (src/harness_math.h).
#include <gtest/gtest.h>

#include <vector>

#include "harness_math.h"

namespace scopebench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) {
    v.push_back(i);
  }
  EXPECT_EQ(Percentile(v, 50.0), 50.0);
  EXPECT_EQ(Percentile(v, 99.0), 99.0);
  EXPECT_EQ(Percentile(v, 100.0), 100.0);
  EXPECT_EQ(Percentile(std::vector<double>{}, 50.0), 0.0);
  EXPECT_EQ(Percentile(std::vector<float>{7.0f}, 99.0), 7.0);
}

TEST(Percentile, HighestWithTenSamplesBeyond) {
  // p99 of 1000 samples sits at rank 990: exactly 10 beyond.
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10u);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  // 999 samples leave only 9 beyond p99: fall back to p90.
  EXPECT_EQ(SamplesBeyond(999, 99.0), 9u);
  EXPECT_EQ(HighestSupportedPercentile(999), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(10'000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(100'000), 99.99);
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
}

TEST(Lag, RelativeToTheDisplayDeadline) {
  const int64_t start = 5'000'000'000;  // scope axis zero on the steady clock
  // Stamp 100 ms, DELAY 50: the deadline is start + 150 ms.
  EXPECT_DOUBLE_EQ(LagMs(start + 150 * kNanosPerMs, start, 100, 50), 0.0);
  EXPECT_DOUBLE_EQ(LagMs(start + 157'500'000, start, 100, 50), 7.5);
  // Decoded before the deadline reads negative, not clamped.
  EXPECT_DOUBLE_EQ(LagMs(start + 149 * kNanosPerMs, start, 100, 50), -1.0);
}

TEST(ServerCpu, SubtractsHarnessThreads) {
  EXPECT_EQ(ServerCpuNs(10'000, {}), 10'000);
  EXPECT_EQ(ServerCpuNs(10'000, {1'500, 500}), 8'000);
  EXPECT_EQ(ServerCpuNs(1'000, {4'000}), 0);  // never negative
}

TEST(OpenLoop, LatenessCountsFromTheSchedule) {
  const int64_t t0 = 1'000'000;
  // 50k tuples/s: one every 20 us, whatever happened to earlier ones.
  EXPECT_EQ(DueNs(t0, 0, 50'000), t0);
  EXPECT_EQ(DueNs(t0, 50'000, 50'000), t0 + 1'000'000'000);
  EXPECT_EQ(DueNs(t0, 3, 200'000), t0 + 15'000);
  // A stall delays every sample due during it.
  const int64_t resumed = DueNs(t0, 10, 50'000) + 12 * kNanosPerMs;
  EXPECT_DOUBLE_EQ(LatenessMs(resumed, DueNs(t0, 10, 50'000)), 12.0);
  EXPECT_DOUBLE_EQ(LatenessMs(DueNs(t0, 10, 50'000), DueNs(t0, 10, 50'000)), 0.0);
}

TEST(Misses, LostSampleCountsAsMiss) {
  DeliveryTally tally;
  // 100 expected, 97 decoded of which 2 more than the limit late.
  tally.AddViewer(100, 97, 2);
  EXPECT_EQ(tally.offered, 100);
  EXPECT_EQ(tally.missed, 5);
  // A display scope that late-dropped 5 of 100.
  tally.AddDisplayScope(100, 5);
  EXPECT_EQ(tally.offered, 200);
  EXPECT_EQ(tally.missed, 10);
  EXPECT_DOUBLE_EQ(tally.MissFrac(), 0.05);
  // Nothing decoded at all: every offered sample is a miss.
  DeliveryTally silent;
  silent.AddViewer(40, 0, 0);
  EXPECT_DOUBLE_EQ(silent.MissFrac(), 1.0);
}

}  // namespace
}  // namespace scopebench
