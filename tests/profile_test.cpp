#include "sched/profile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace tg {
namespace {

TEST(Profile, EmptyProfileFitsImmediately) {
  Profile p(0, 100);
  EXPECT_EQ(p.earliest_fit(50, kHour, 0), 0);
  EXPECT_EQ(p.earliest_fit(100, kHour, 0), 0);
  EXPECT_EQ(p.free_at(0), 100);
  EXPECT_EQ(p.free_at(kYear), 100);
}

TEST(Profile, TooWideNeverFits) {
  Profile p(0, 100);
  EXPECT_EQ(p.earliest_fit(101, kHour, 0), -1);
}

TEST(Profile, SubtractReducesFree) {
  Profile p(0, 100);
  p.subtract(0, kHour, 60);
  EXPECT_EQ(p.free_at(0), 40);
  EXPECT_EQ(p.free_at(kHour - 1), 40);
  EXPECT_EQ(p.free_at(kHour), 100);
}

TEST(Profile, FitWaitsForRelease) {
  Profile p(0, 100);
  p.subtract(0, kHour, 60);
  EXPECT_EQ(p.earliest_fit(40, kHour, 0), 0);
  EXPECT_EQ(p.earliest_fit(41, kHour, 0), kHour);
}

TEST(Profile, FitSlipsIntoGap) {
  // Busy [0,1h) and [2h,3h); a 1-hour job of full width fits exactly in
  // the gap [1h,2h).
  Profile p(0, 10);
  p.subtract(0, kHour, 10);
  p.subtract(2 * kHour, 3 * kHour, 10);
  EXPECT_EQ(p.earliest_fit(10, kHour, 0), kHour);
  // A longer job must wait past the second block.
  EXPECT_EQ(p.earliest_fit(10, kHour + 1, 0), 3 * kHour);
}

TEST(Profile, EarliestParameterRespected) {
  Profile p(0, 10);
  EXPECT_EQ(p.earliest_fit(5, kHour, 30 * kMinute), 30 * kMinute);
}

TEST(Profile, OverlappingSubtracts) {
  Profile p(0, 10);
  p.subtract(0, 2 * kHour, 4);
  p.subtract(kHour, 3 * kHour, 4);
  EXPECT_EQ(p.free_at(0), 6);
  EXPECT_EQ(p.free_at(kHour), 2);
  EXPECT_EQ(p.free_at(2 * kHour), 6);
  EXPECT_EQ(p.free_at(3 * kHour), 10);
  // 6 nodes free during [0,1h) already fits a 5-node job.
  EXPECT_EQ(p.earliest_fit(5, kHour, 0), 0);
  EXPECT_EQ(p.earliest_fit(6, kHour, 0), 0);
  EXPECT_EQ(p.earliest_fit(7, kHour, 0), 3 * kHour);
}

TEST(Profile, SubtractBeforeNowClamps) {
  Profile p(kHour, 10);
  p.subtract(0, 2 * kHour, 5);  // starts before profile origin
  EXPECT_EQ(p.free_at(kHour), 5);
  EXPECT_EQ(p.free_at(2 * kHour), 10);
}

TEST(Profile, ZeroNodeAndEmptyIntervalNoops) {
  Profile p(0, 10);
  p.subtract(0, kHour, 0);
  p.subtract(kHour, kHour, 5);
  p.subtract(2 * kHour, kHour, 5);  // to < from
  EXPECT_EQ(p.free_at(0), 10);
  EXPECT_EQ(p.free_at(kHour), 10);
}

TEST(Profile, FenceBlocksStraddlingJob) {
  Profile p(0, 10);
  p.set_fence_period(kHour);
  // A 1-hour job fits exactly between two fences.
  EXPECT_EQ(p.earliest_fit(10, kHour, 0), 0);
  // From 30min it would span the fence at 1h: it must start at the fence.
  EXPECT_EQ(p.earliest_fit(10, kHour, 30 * kMinute), kHour);
  // A 30-minute job starting at 45min would straddle; it snaps to 1h.
  EXPECT_EQ(p.earliest_fit(10, 30 * kMinute, 45 * kMinute), kHour);
  // A job ending exactly on the fence does not straddle it.
  EXPECT_EQ(p.earliest_fit(10, 15 * kMinute, 45 * kMinute), 45 * kMinute);
}

TEST(Profile, FenceInteractsWithBusyInterval) {
  Profile p(0, 10);
  p.subtract(0, kHour, 10);  // busy first hour
  p.set_fence_period(90 * kMinute);
  // 1h job: free at 1h, but would straddle the 1.5h fence -> starts there.
  EXPECT_EQ(p.earliest_fit(10, kHour, 0), 90 * kMinute);
  // 30m job fits right at 1h.
  EXPECT_EQ(p.earliest_fit(10, 30 * kMinute, 0), kHour);
}

TEST(Profile, PeriodicFencesHaveNoHorizon) {
  Profile p(0, 10);
  p.set_fence_period(kDay);
  // Each window between consecutive fences is one day; a straddling start
  // snaps to the next fence no matter how far out it lies.
  EXPECT_EQ(p.earliest_fit(10, kDay, 0), 0);
  EXPECT_EQ(p.earliest_fit(10, kDay, kMinute), kDay);
  p.subtract(0, 400 * kDay + 5 * kHour, 10);  // busy past any old horizon
  // Free at 400d+5h, but only 19h remain before the fence at 401d: a
  // 20-hour job must snap to the fence.
  EXPECT_EQ(p.earliest_fit(10, 19 * kHour, 0), 400 * kDay + 5 * kHour);
  EXPECT_EQ(p.earliest_fit(10, 20 * kHour, 0), 401 * kDay);
}

TEST(Profile, JobLongerThanFencePeriodNeverFits) {
  Profile p(0, 10);
  p.set_fence_period(kDay);
  EXPECT_EQ(p.earliest_fit(1, kDay + 1, 0), -1);
  EXPECT_EQ(p.earliest_fit(1, kDay, 0), 0);  // exactly one window is fine
  EXPECT_THROW(p.set_fence_period(-1), PreconditionError);
}

TEST(Profile, FitsAtMatchesEarliestFit) {
  Rng rng(77);
  Profile p(0, 64);
  for (int i = 0; i < 30; ++i) {
    const SimTime from = rng.uniform_int(0, 100 * kHour);
    const Duration len = rng.uniform_int(kMinute, 20 * kHour);
    p.subtract(from, from + len, static_cast<int>(rng.uniform_int(1, 32)));
  }
  // Shorter than the query range, so queries reach fences 30h apart.
  p.set_fence_period(30 * kHour);
  for (int q = 0; q < 200; ++q) {
    const int nodes = static_cast<int>(rng.uniform_int(1, 64));
    const Duration dur = rng.uniform_int(kMinute, 10 * kHour);
    const SimTime t = rng.uniform_int(0, 120 * kHour);
    // fits_at(t) must agree with "earliest_fit from t returns exactly t".
    ASSERT_EQ(p.fits_at(t, nodes, dur), p.earliest_fit(nodes, dur, t) == t)
        << "t=" << t << " nodes=" << nodes << " dur=" << dur;
  }
}

TEST(Profile, PresortedHoldsMatchSubtracts) {
  // A scheduler's base profile: running jobs held from `now` until their
  // releases (sorted, with ties and overdue releases that clamp to
  // now + 1), then reservations spliced in. The presorted load must answer
  // every query like the unsorted subtract build, also after a reset
  // reuses the buffers of an unrelated profile.
  Rng rng(5);
  const SimTime now = 10 * kHour;
  std::vector<std::pair<SimTime, int>> holds;
  for (int i = 0; i < 40; ++i) {
    holds.emplace_back(now + rng.uniform_int(-kHour, 30 * kHour) / kHour *
                                 kHour,
                       static_cast<int>(rng.uniform_int(1, 3)));
  }
  std::sort(holds.begin(), holds.end());
  Profile loaded(0, 7);
  loaded.subtract(0, kDay, 5);
  loaded.set_fence_period(kHour);  // reset() must clear it
  loaded.reset(now, 128);
  Profile reference(now, 128);
  for (const auto& [release, nodes] : holds) {
    loaded.add_hold(release, nodes);
    reference.subtract(now, std::max(release, now + 1), nodes);
  }
  // Reservation edges on the same hour grid land on release times, where
  // a spliced window start meets merged releases.
  for (int i = 0; i < 8; ++i) {
    const SimTime from = now + rng.uniform_int(0, 20) * kHour;
    const Duration len = rng.uniform_int(1, 10) * kHour;
    const int nodes = static_cast<int>(rng.uniform_int(1, 16));
    loaded.subtract(from, from + len, nodes);
    reference.subtract(from, from + len, nodes);
  }
  for (int q = 0; q < 600; ++q) {
    const int nodes = static_cast<int>(rng.uniform_int(1, 128));
    const Duration dur = rng.uniform_int(kMinute, 10 * kHour);
    // A pass asks at `now`, where the clamped holds still count.
    const SimTime t = q % 3 == 0 ? now : now + rng.uniform_int(0, 40 * kHour);
    ASSERT_EQ(loaded.free_at(t), reference.free_at(t)) << "t=" << t;
    ASSERT_EQ(loaded.earliest_fit(nodes, dur, t),
              reference.earliest_fit(nodes, dur, t))
        << "t=" << t << " nodes=" << nodes << " dur=" << dur;
    ASSERT_EQ(loaded.fits_at(t, nodes, dur), reference.fits_at(t, nodes, dur))
        << "t=" << t << " nodes=" << nodes << " dur=" << dur;
  }
}

TEST(Profile, RejectsBadQueries) {
  Profile p(0, 10);
  EXPECT_THROW((void)p.earliest_fit(-1, kHour, 0), PreconditionError);
  EXPECT_THROW((void)p.earliest_fit(1, -1, 0), PreconditionError);
  EXPECT_THROW(Profile(0, -5), PreconditionError);
}

// Property: earliest_fit's answer is always actually feasible, and no
// earlier feasible start exists on a sampled grid.
class ProfileProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProfileProperty, FitIsFeasibleAndMinimal) {
  Rng rng(GetParam());
  Profile p(0, 64);
  for (int i = 0; i < 30; ++i) {
    const SimTime from = rng.uniform_int(0, 100 * kHour);
    const Duration len = rng.uniform_int(kMinute, 20 * kHour);
    p.subtract(from, from + len, static_cast<int>(rng.uniform_int(1, 32)));
  }
  // At least as long as the longest query, so every query has an answer.
  const Duration period = rng.uniform_int(10 * kHour, 120 * kHour);
  p.set_fence_period(period);
  const auto feasible = [&](SimTime s, int nodes, Duration dur) {
    if (s < 0) return false;
    if ((s / period + 1) * period < s + dur) return false;  // straddles
    for (SimTime t = s; t < s + dur; t += 7 * kMinute) {
      if (p.free_at(t) < nodes) return false;
    }
    if (p.free_at(s + dur - 1) < nodes) return false;
    return true;
  };
  for (int q = 0; q < 50; ++q) {
    const int nodes = static_cast<int>(rng.uniform_int(1, 64));
    const Duration dur = rng.uniform_int(kMinute, 10 * kHour);
    const SimTime s = p.earliest_fit(nodes, dur, 0);
    ASSERT_TRUE(feasible(s, nodes, dur))
        << "infeasible answer s=" << s << " nodes=" << nodes << " dur=" << dur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfileProperty,
                         ::testing::Values(11ULL, 22ULL, 33ULL, 44ULL, 55ULL));

}  // namespace
}  // namespace tg
