#include <gtest/gtest.h>

#include "sched/scheduler.hpp"

namespace tg {
namespace {

ComputeResource machine(int nodes = 16) {
  ComputeResource r;
  r.id = ResourceId{0};
  r.site = SiteId{0};
  r.name = "fs";
  r.nodes = nodes;
  r.cores_per_node = 8;
  r.max_walltime = 48 * kHour;
  return r;
}

JobRequest job_of(UserId user, int nodes, Duration runtime) {
  JobRequest req;
  req.user = user;
  req.project = ProjectId{0};
  req.nodes = nodes;
  req.actual_runtime = runtime;
  req.requested_walltime = runtime;
  return req;
}

SchedulerConfig fair_cfg() {
  SchedulerConfig cfg;
  cfg.policy = SchedPolicy::kFcfs;
  cfg.fair_share = true;
  return cfg;
}

TEST(FairShare, UsageAccumulatesAndDecays) {
  Engine engine;
  ResourceScheduler sched(engine, machine(), fair_cfg());
  sched.submit(job_of(UserId{1}, 8, 2 * kHour));
  engine.run();
  // 8 nodes x 8 cores x 7200 s.
  const double expected = 8 * 8 * 7200.0;
  EXPECT_NEAR(sched.fair_share_usage(UserId{1}, 2 * kHour), expected, 1e-6);
  // One half-life later it has halved.
  EXPECT_NEAR(sched.fair_share_usage(UserId{1}, 2 * kHour + 7 * kDay),
              expected / 2, 1e-6);
  // Unknown users have zero usage.
  EXPECT_EQ(sched.fair_share_usage(UserId{99}, kDay), 0.0);
}

TEST(FairShare, LightUserJumpsQueue) {
  Engine engine;
  ResourceScheduler sched(engine, machine(), fair_cfg());
  std::vector<UserId> start_order;
  sched.add_on_start([&](const Job& j) { start_order.push_back(j.req.user); });

  // Heavy user builds up usage.
  sched.submit(job_of(UserId{1}, 16, 4 * kHour));
  engine.run();
  ASSERT_EQ(start_order.size(), 1u);

  // Machine gets blocked, then heavy submits before light: light first.
  sched.submit(job_of(UserId{3}, 16, kHour));  // blocker (new user)
  sched.submit(job_of(UserId{1}, 8, kHour));   // heavy, earlier submission
  sched.submit(job_of(UserId{2}, 8, kHour));   // light, later submission
  engine.run();
  ASSERT_EQ(start_order.size(), 4u);
  EXPECT_EQ(start_order[2], UserId{2}) << "light user should start first";
  EXPECT_EQ(start_order[3], UserId{1});
}

TEST(FairShare, FifoWithoutFairShare) {
  Engine engine;
  SchedulerConfig cfg;
  cfg.policy = SchedPolicy::kFcfs;
  ResourceScheduler sched(engine, machine(), cfg);
  std::vector<UserId> start_order;
  sched.add_on_start([&](const Job& j) { start_order.push_back(j.req.user); });
  sched.submit(job_of(UserId{1}, 16, 4 * kHour));
  engine.run();
  sched.submit(job_of(UserId{3}, 16, kHour));
  sched.submit(job_of(UserId{1}, 8, kHour));
  sched.submit(job_of(UserId{2}, 8, kHour));
  engine.run();
  ASSERT_EQ(start_order.size(), 4u);
  EXPECT_EQ(start_order[2], UserId{1}) << "FIFO keeps submission order";
}

TEST(FairShare, EqualUsersKeepFifo) {
  Engine engine;
  ResourceScheduler sched(engine, machine(), fair_cfg());
  std::vector<UserId> start_order;
  sched.add_on_start([&](const Job& j) { start_order.push_back(j.req.user); });
  sched.submit(job_of(UserId{9}, 16, kHour));  // blocker
  sched.submit(job_of(UserId{4}, 8, kHour));
  sched.submit(job_of(UserId{5}, 8, kHour));
  engine.run();
  ASSERT_EQ(start_order.size(), 3u);
  EXPECT_EQ(start_order[1], UserId{4});
  EXPECT_EQ(start_order[2], UserId{5});
}

TEST(FairShare, DecayRestoresPriority) {
  Engine engine;
  ResourceScheduler sched(engine, machine(), fair_cfg());
  std::vector<UserId> start_order;
  sched.add_on_start([&](const Job& j) { start_order.push_back(j.req.user); });
  // User 1 heavy at t=0; user 2 heavier but long ago relative to decay.
  sched.submit(job_of(UserId{1}, 8, 2 * kHour));
  sched.submit(job_of(UserId{2}, 8, 3 * kHour));
  engine.run();
  // Jump 10 half-lives: user 2's usage decays to ~nothing more than user
  // 1's (both decay equally)... instead add fresh usage for user 1 only.
  engine.run_until(engine.now() + 70 * kDay);
  sched.submit(job_of(UserId{1}, 16, 4 * kHour));
  engine.run();
  // Now user 1 is the recent heavy user; competing jobs favour user 2.
  sched.submit(job_of(UserId{9}, 16, kHour));  // blocker
  sched.submit(job_of(UserId{1}, 8, kHour));
  sched.submit(job_of(UserId{2}, 8, kHour));
  engine.run();
  const auto n = start_order.size();
  ASSERT_GE(n, 2u);
  EXPECT_EQ(start_order[n - 2], UserId{2});
  EXPECT_EQ(start_order[n - 1], UserId{1});
}

}  // namespace
}  // namespace tg
