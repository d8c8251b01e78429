#include "util/histogram.hpp"

#include <gtest/gtest.h>

namespace tg {
namespace {

TEST(Log2Histogram, PowersLandOnBoundaries) {
  Log2Histogram h;
  h.add(1.0);   // bin 0: [1,2)
  h.add(2.0);   // bin 1: [2,4)
  h.add(3.9);   // bin 1
  h.add(4.0);   // bin 2
  h.add(1024.0);  // bin 10
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(1), 2.0);
  EXPECT_DOUBLE_EQ(h.count(2), 1.0);
  EXPECT_DOUBLE_EQ(h.count(10), 1.0);
}

TEST(Log2Histogram, SubUnitGoesToBinZero) {
  Log2Histogram h;
  h.add(0.25);
  h.add(0.0);
  EXPECT_DOUBLE_EQ(h.count(0), 2.0);
}

TEST(Log2Histogram, UsedBins) {
  Log2Histogram h(16);
  EXPECT_EQ(h.used_bins(), 0u);
  h.add(5.0);  // bin 2
  EXPECT_EQ(h.used_bins(), 3u);
}

TEST(Log2Histogram, OverflowClampsToLastBin) {
  Log2Histogram h(4);
  h.add(1e12);
  EXPECT_DOUBLE_EQ(h.count(3), 1.0);
}

TEST(Sparkline, ScalesToMax) {
  const std::string s = sparkline({0.0, 4.0, 8.0});
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(sparkline({}), "");
}

}  // namespace
}  // namespace tg
