#include "util/distributions.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace tg {
namespace {

constexpr int kSamples = 200000;

template <class Dist>
RunningStats sample_stats(const Dist& dist, std::uint64_t seed,
                          int n = kSamples) {
  Rng rng(seed);
  RunningStats s;
  for (int i = 0; i < n; ++i) s.add(dist.sample(rng));
  return s;
}

TEST(Exponential, MeanMatchesRate) {
  const Exponential dist(0.5);
  const auto s = sample_stats(dist, 1);
  EXPECT_NEAR(s.mean(), 2.0, 0.05);
}

TEST(Exponential, AllPositive) {
  const Exponential dist(3.0);
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(dist.sample(rng), 0.0);
}

TEST(Exponential, RejectsNonPositiveRate) {
  EXPECT_THROW(Exponential(0.0), PreconditionError);
  EXPECT_THROW(Exponential(-1.0), PreconditionError);
}

TEST(LogNormal, FromMeanCvRecoversMean) {
  const LogNormal dist = LogNormal::from_mean_cv(10.0, 0.5);
  const auto s = sample_stats(dist, 3);
  EXPECT_NEAR(s.mean(), 10.0, 0.2);
}

TEST(LogNormal, FromMeanCvRecoversCv) {
  const LogNormal dist = LogNormal::from_mean_cv(10.0, 1.5);
  const auto s = sample_stats(dist, 4);
  EXPECT_NEAR(s.stddev() / s.mean(), 1.5, 0.1);
}

TEST(LogNormal, AnalyticMeanMatches) {
  const LogNormal dist = LogNormal::from_mean_cv(7.0, 0.9);
  EXPECT_NEAR(dist.mean(), 7.0, 1e-9);
}

TEST(LogNormal, ZeroSigmaIsConstant) {
  const LogNormal dist(std::log(5.0), 0.0);
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_NEAR(dist.sample(rng), 5.0, 1e-9);
  }
}

TEST(BoundedPareto, SamplesWithinBounds) {
  const BoundedPareto dist(1.2, 10.0, 1000.0);
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = dist.sample(rng);
    ASSERT_GE(x, 10.0);
    ASSERT_LE(x, 1000.0);
  }
}

TEST(BoundedPareto, HeavyTailSkewsLow) {
  const BoundedPareto dist(1.5, 1.0, 1e6);
  Rng rng(8);
  int below_ten = 0;
  for (int i = 0; i < 10000; ++i) {
    if (dist.sample(rng) < 10.0) ++below_ten;
  }
  // P(X < 10) for alpha=1.5 bounded Pareto ~ 1 - 10^-1.5 ~ 0.968.
  EXPECT_GT(below_ten, 9000);
}

TEST(BoundedPareto, RejectsBadBounds) {
  EXPECT_THROW(BoundedPareto(1.0, 5.0, 5.0), PreconditionError);
  EXPECT_THROW(BoundedPareto(1.0, 0.0, 5.0), PreconditionError);
  EXPECT_THROW(BoundedPareto(-1.0, 1.0, 5.0), PreconditionError);
}

TEST(Zipf, RankOneMostPopular) {
  const Zipf dist(10, 1.0);
  Rng rng(9);
  std::vector<int> counts(11, 0);
  for (int i = 0; i < 50000; ++i) {
    const std::size_t r = dist.sample(rng);
    ASSERT_GE(r, 1u);
    ASSERT_LE(r, 10u);
    ++counts[r];
  }
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[5]);
  EXPECT_GT(counts[5], counts[10]);
}

TEST(Zipf, SingleOutcome) {
  const Zipf dist(1, 2.0);
  Rng rng(10);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(dist.sample(rng), 1u);
}

TEST(Discrete, RespectsWeights) {
  const Discrete dist({1.0, 3.0, 0.0, 6.0});
  Rng rng(11);
  std::vector<int> counts(4, 0);
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) ++counts[dist.sample(rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(kN), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kN), 0.3, 0.01);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / static_cast<double>(kN), 0.6, 0.01);
}

TEST(Discrete, ProbabilityAccessor) {
  const Discrete dist({2.0, 2.0, 4.0});
  EXPECT_NEAR(dist.probability(0), 0.25, 1e-12);
  EXPECT_NEAR(dist.probability(1), 0.25, 1e-12);
  EXPECT_NEAR(dist.probability(2), 0.50, 1e-12);
  EXPECT_THROW((void)dist.probability(3), PreconditionError);
}

TEST(Discrete, RejectsDegenerateWeights) {
  EXPECT_THROW(Discrete({}), PreconditionError);
  EXPECT_THROW(Discrete({0.0, 0.0}), PreconditionError);
  EXPECT_THROW(Discrete({1.0, -1.0}), PreconditionError);
}

TEST(LogUniformInt, WithinBounds) {
  const LogUniformInt dist(8, 512);
  Rng rng(12);
  for (int i = 0; i < 10000; ++i) {
    const auto v = dist.sample(rng);
    ASSERT_GE(v, 8);
    ASSERT_LE(v, 512);
  }
}

TEST(LogUniformInt, LogSpaceRoughlyUniform) {
  // Median of log-uniform [8, 512] should be near geometric mean (64).
  const LogUniformInt dist(8, 512);
  Rng rng(13);
  std::vector<double> vals;
  for (int i = 0; i < 20000; ++i) {
    vals.push_back(static_cast<double>(dist.sample(rng)));
  }
  EXPECT_NEAR(percentile(vals, 0.5), 64.0, 8.0);
}

TEST(SnapToPowerOfTwo, AlwaysWhenP1) {
  Rng rng(14);
  for (std::int64_t w : {3LL, 5LL, 9LL, 100LL, 1000LL}) {
    const auto v = snap_to_power_of_two(w, 1.0, rng);
    EXPECT_EQ(v & (v - 1), 0) << v;
    EXPECT_GE(v, w);
  }
}

TEST(SnapToPowerOfTwo, NeverWhenP0) {
  Rng rng(15);
  for (std::int64_t w : {3LL, 5LL, 9LL}) {
    EXPECT_EQ(snap_to_power_of_two(w, 0.0, rng), w);
  }
}

TEST(SnapToPowerOfTwo, PowerStaysPut) {
  Rng rng(16);
  EXPECT_EQ(snap_to_power_of_two(64, 1.0, rng), 64);
}

TEST(StandardNormal, MeanZeroVarianceOne) {
  Rng rng(17);
  RunningStats s;
  for (int i = 0; i < kSamples; ++i) s.add(sample_standard_normal(rng));
  EXPECT_NEAR(s.mean(), 0.0, 0.01);
  EXPECT_NEAR(s.variance(), 1.0, 0.02);
}

// Property sweep: every distribution stays deterministic under seed reuse.
class DistDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DistDeterminism, SameSeedSameStream) {
  const LogNormal d = LogNormal::from_mean_cv(4.0, 1.0);
  Rng a(GetParam());
  Rng b(GetParam());
  for (int i = 0; i < 200; ++i) {
    ASSERT_DOUBLE_EQ(d.sample(a), d.sample(b));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistDeterminism,
                         ::testing::Values(1ULL, 99ULL, 31337ULL));

}  // namespace
}  // namespace tg
