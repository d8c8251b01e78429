#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace tg {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.sum(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(1);
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-10, 10);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.mean(), 2.0);
  RunningStats target;
  target.merge(a);
  EXPECT_EQ(target.count(), 2u);
  EXPECT_EQ(target.mean(), 2.0);
}

TEST(Percentile, MedianOfOddSet) {
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(Percentile, Interpolates) {
  EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 0.25), 2.5);
}

TEST(Percentile, Extremes) {
  const std::vector<double> v{5.0, 1.0, 9.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 9.0);
}

TEST(Percentile, EmptyAndSingleton) {
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.99), 7.0);
}

TEST(Percentile, RejectsBadQ) {
  EXPECT_THROW((void)percentile({1.0}, -0.1), PreconditionError);
  EXPECT_THROW((void)percentile({1.0}, 1.1), PreconditionError);
}

TEST(Summarize, KnownQuantiles) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_NEAR(s.p50, 50.5, 0.01);
  EXPECT_NEAR(s.p90, 90.1, 0.01);
  EXPECT_NEAR(s.p99, 99.01, 0.01);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 100.0);
}

TEST(SiFormat, Scales) {
  EXPECT_EQ(si_format(950), "950");
  EXPECT_EQ(si_format(1234567), "1.23M");
  EXPECT_EQ(si_format(2.5e9), "2.50G");
  EXPECT_EQ(si_format(-1500), "-1.50k");
}

}  // namespace
}  // namespace tg
