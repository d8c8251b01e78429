#include <gtest/gtest.h>

#include "accounting/usage_db.hpp"
#include "meta/coalloc.hpp"
#include "meta/selector.hpp"
#include "util/error.hpp"

namespace tg {
namespace {

JobRequest job(int nodes, Duration runtime) {
  JobRequest r;
  r.user = UserId{1};
  r.project = ProjectId{1};
  r.nodes = nodes;
  r.requested_walltime = runtime;
  r.actual_runtime = runtime;
  return r;
}

struct MetaFixture : ::testing::Test {
  Platform platform = teragrid_2010();
  Engine engine;
  SchedulerPool pool{engine, platform};

  ResourceId by_name(const std::string& n) {
    return platform.compute_by_name(n).id;
  }
};

TEST_F(MetaFixture, SelectorPicksIdleMachine) {
  const ResourceSelector sel;
  // Saturate Kraken; a new job should land elsewhere.
  const ResourceId kraken = by_name("Kraken");
  pool.at(kraken).submit(job(platform.compute_at(kraken).nodes, 10 * kHour));
  const ResourceId pick = sel.select(pool, 64, kHour);
  EXPECT_NE(pick, kraken);
}

TEST_F(MetaFixture, SelectorExcludesVizByDefault) {
  const ResourceSelector sel;
  for (int i = 0; i < 50; ++i) {
    const ResourceId pick = sel.select(pool, 1, kHour);
    EXPECT_FALSE(platform.compute_at(pick).interactive_viz);
  }
}

TEST_F(MetaFixture, SelectorSkipsTooSmallMachines) {
  const ResourceSelector sel;
  // 600 nodes only fits Kraken (1032).
  const ResourceId pick = sel.select(pool, 600, kHour);
  EXPECT_EQ(pick, by_name("Kraken"));
}

TEST_F(MetaFixture, SelectorThrowsWhenNothingFits) {
  const ResourceSelector sel;
  EXPECT_THROW((void)sel.select(pool, 100000, kHour), PreconditionError);
}

TEST_F(MetaFixture, SelectorRespectsWalltimeLimits) {
  const ResourceSelector sel;
  // 90h walltime only allowed on Pople (96h limit).
  const ResourceId pick = sel.select(pool, 8, 90 * kHour);
  EXPECT_EQ(pick, by_name("Pople"));
}

TEST_F(MetaFixture, EstimatesVectorAlignsWithCandidates) {
  const ResourceSelector sel;
  const std::vector<ResourceId> cands{by_name("Kraken"), by_name("Longhorn")};
  const auto est = sel.estimates(pool, 8, kHour, cands);
  ASSERT_EQ(est.size(), 2u);
  EXPECT_EQ(est[0], 0);   // idle
  EXPECT_EQ(est[1], -1);  // viz excluded
}

TEST_F(MetaFixture, CoAllocSimultaneousStart) {
  UsageDatabase db;
  Recorder rec(platform, db);
  rec.attach(pool);
  CoAllocator ca(engine, pool);
  CoAllocRequest req;
  req.user = UserId{1};
  req.project = ProjectId{1};
  req.walltime = 2 * kHour;
  req.actual_runtime = 2 * kHour;
  req.members = {{by_name("Kraken"), 32}, {by_name("Ranger"), 16}};
  const auto result = ca.co_allocate(req);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->start, 0);
  EXPECT_EQ(result->jobs.size(), 2u);
  engine.run();
  ASSERT_EQ(db.jobs().size(), 2u);
  EXPECT_EQ(db.jobs()[0].start_time, db.jobs()[1].start_time);
  for (const auto& r : db.jobs()) {
    EXPECT_TRUE(r.coallocated);
    EXPECT_EQ(r.final_state, JobState::kCompleted);
  }
}

TEST_F(MetaFixture, CoAllocWaitsForCommonWindow) {
  CoAllocator ca(engine, pool);
  // Kraken busy for 4h.
  const ResourceId kraken = by_name("Kraken");
  pool.at(kraken).submit(job(platform.compute_at(kraken).nodes, 4 * kHour));
  CoAllocRequest req;
  req.user = UserId{1};
  req.project = ProjectId{1};
  req.walltime = kHour;
  req.actual_runtime = kHour;
  req.members = {{kraken, 32}, {by_name("Ranger"), 16}};
  EXPECT_EQ(ca.estimate_common_start(req), 4 * kHour);
  const auto result = ca.co_allocate(req);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->start, 4 * kHour);
  engine.run();
}

TEST_F(MetaFixture, CoAllocValidation) {
  CoAllocator ca(engine, pool);
  CoAllocRequest req;
  EXPECT_THROW(ca.co_allocate(req), PreconditionError);  // no members
  req.members = {{by_name("Kraken"), 8}};
  req.walltime = 0;
  EXPECT_THROW(ca.co_allocate(req), PreconditionError);
}

TEST_F(MetaFixture, CoAllocThreeSites) {
  UsageDatabase db;
  Recorder rec(platform, db);
  rec.attach(pool);
  CoAllocator ca(engine, pool);
  CoAllocRequest req;
  req.user = UserId{2};
  req.project = ProjectId{2};
  req.walltime = kHour;
  req.actual_runtime = 30 * kMinute;  // ends early, reservations release
  req.members = {{by_name("Kraken"), 16},
                 {by_name("Ranger"), 16},
                 {by_name("Abe"), 16}};
  const auto result = ca.co_allocate(req);
  ASSERT_TRUE(result.has_value());
  engine.run();
  EXPECT_EQ(db.jobs().size(), 3u);
  for (const auto& r : db.jobs()) {
    EXPECT_EQ(r.start_time, result->start);
    EXPECT_EQ(r.end_time, result->start + 30 * kMinute);
  }
  // All nodes released.
  for (const auto& m : req.members) {
    EXPECT_EQ(pool.at(m.resource).free_nodes(),
              platform.compute_at(m.resource).nodes);
  }
}

}  // namespace
}  // namespace tg
