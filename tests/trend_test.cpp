#include "core/trend.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace tg {
namespace {

class TrendFixture : public ::testing::Test {
 protected:
  Platform platform = mini_platform();
  UsageDatabase db;
  RuleClassifier classifier;

  /// The quarterly window series over [0, to).
  [[nodiscard]] std::vector<WindowModalities> series(SimTime to) const {
    return classify_series(platform, db, classifier, 0, to);
  }

  /// Adds a quarter's worth of capacity-style activity for `user` in
  /// quarter `q` (enough charge to not look exploratory).
  void add_capacity_quarter(UserId user, int q) {
    for (int j = 0; j < 5; ++j) {
      JobRecord r;
      r.resource = platform.compute()[0].id;
      r.user = user;
      r.project = ProjectId{0};
      r.nodes = 8;
      r.cores_per_node = 8;
      r.submit_time = q * kQuarter + j * kDay;
      r.start_time = r.submit_time;
      r.end_time = r.start_time + 10 * kHour;
      r.requested_walltime = 12 * kHour;
      r.charged_nu = 5000.0;
      r.charged_su = 5000.0;
      db.add(r);
    }
  }

  /// Adds exploratory-style activity (tiny) for `user` in quarter `q`.
  void add_exploratory_quarter(UserId user, int q) {
    JobRecord r;
    r.resource = platform.compute()[0].id;
    r.user = user;
    r.project = ProjectId{0};
    r.nodes = 1;
    r.cores_per_node = 8;
    r.submit_time = q * kQuarter + kDay;
    r.start_time = r.submit_time;
    r.end_time = r.start_time + 10 * kMinute;
    r.requested_walltime = kHour;
    r.charged_nu = 2.0;
    r.charged_su = 2.0;
    db.add(r);
  }
};

TEST_F(TrendFixture, StableUserIsRetained) {
  add_capacity_quarter(UserId{1}, 0);
  add_capacity_quarter(UserId{1}, 1);
  add_capacity_quarter(UserId{1}, 2);
  const auto churn = churn_from(series(3 * kQuarter));
  EXPECT_EQ(churn.quarter_pairs, 2);
  EXPECT_EQ(churn.transitions[static_cast<std::size_t>(
                Modality::kCapacityBatch)]
                             [static_cast<std::size_t>(
                                 Modality::kCapacityBatch)],
            2);
  EXPECT_DOUBLE_EQ(churn.retention(Modality::kCapacityBatch), 1.0);
  EXPECT_EQ(churn.total_transitions(), 2);
}

TEST_F(TrendFixture, GraduationShowsAsTransition) {
  // Exploratory in Q1, capacity from Q2 on — the classic on-ramp.
  add_exploratory_quarter(UserId{2}, 0);
  add_capacity_quarter(UserId{2}, 1);
  const auto churn = churn_from(series(2 * kQuarter));
  EXPECT_EQ(churn.transitions[static_cast<std::size_t>(
                Modality::kExploratory)]
                             [static_cast<std::size_t>(
                                 Modality::kCapacityBatch)],
            1);
  EXPECT_DOUBLE_EQ(churn.retention(Modality::kExploratory), 0.0);
}

TEST_F(TrendFixture, DepartureAndArrivalCounted) {
  add_capacity_quarter(UserId{3}, 0);   // leaves after Q1
  add_capacity_quarter(UserId{4}, 1);   // arrives in Q2
  const auto churn = churn_from(series(2 * kQuarter));
  EXPECT_EQ(churn.departed[static_cast<std::size_t>(
                Modality::kCapacityBatch)],
            1);
  EXPECT_EQ(churn.arrived[static_cast<std::size_t>(
                Modality::kCapacityBatch)],
            1);
}

TEST_F(TrendFixture, ChurnTableRenders) {
  add_capacity_quarter(UserId{1}, 0);
  add_capacity_quarter(UserId{1}, 1);
  const auto churn = churn_from(series(2 * kQuarter));
  const std::string table = churn.to_table().to_string();
  EXPECT_NE(table.find("capacity"), std::string::npos);
  EXPECT_NE(table.find("(new)"), std::string::npos);
}

TEST_F(TrendFixture, TrendGrowthComputed) {
  // 1 capacity user in Q1, 4 in Q4: growth = 4^(1/3)-1 ≈ 0.587.
  add_capacity_quarter(UserId{1}, 0);
  for (int q = 0; q < 4; ++q) add_capacity_quarter(UserId{1}, q);
  for (int u = 2; u <= 4; ++u) add_capacity_quarter(UserId{u}, 3);
  const auto trend = trend_from(series(4 * kQuarter));
  EXPECT_EQ(trend.quarters, 4);
  const auto cap = static_cast<std::size_t>(Modality::kCapacityBatch);
  EXPECT_EQ(trend.first_quarter_users[cap], 1);
  EXPECT_EQ(trend.last_quarter_users[cap], 4);
  EXPECT_NEAR(trend.quarterly_growth[cap], std::pow(4.0, 1.0 / 3.0) - 1.0,
              1e-9);
}

TEST_F(TrendFixture, EmptySeriesIsZero) {
  const auto churn = churn_from(series(kQuarter));
  EXPECT_EQ(churn.quarter_pairs, 0);
  EXPECT_EQ(churn.total_transitions(), 0);
  const auto trend = trend_from(series(kQuarter));
  EXPECT_EQ(trend.quarters, 1);
  for (double g : trend.quarterly_growth) EXPECT_DOUBLE_EQ(g, 0.0);
}

}  // namespace
}  // namespace tg
