#include "gateway/gateway.hpp"

#include <gtest/gtest.h>

#include "accounting/usage_db.hpp"
#include "util/error.hpp"
#include "util/string_pool.hpp"

namespace tg {
namespace {

struct GatewayFixture : ::testing::Test {
  Platform platform = mini_platform();
  Engine engine;
  SchedulerPool pool{engine, platform};
  UsageDatabase db;
  Recorder recorder{platform, db};
  StringPool labels;

  EndUserId eu(const std::string& label) { return labels.intern(label); }

  GatewayConfig config() {
    GatewayConfig c;
    c.name = "testhub";
    c.community_account = UserId{100};
    c.project = ProjectId{10};
    c.targets = {platform.compute()[0].id, platform.compute()[1].id};
    return c;
  }

  GatewayJobSpec spec() {
    GatewayJobSpec s;
    s.nodes = 1;
    s.actual_runtime = 30 * kMinute;
    s.requested_walltime = kHour;
    return s;
  }
};

TEST_F(GatewayFixture, JobsRunUnderCommunityAccount) {
  recorder.attach(pool);
  Gateway gw(engine, pool, GatewayId{0}, config());
  Rng rng(1);
  gw.submit(eu("alice"), spec(), rng);
  gw.submit(eu("bob"), spec(), rng);
  engine.run();
  ASSERT_EQ(db.jobs().size(), 2u);
  for (const auto& r : db.jobs()) {
    EXPECT_EQ(r.user, UserId{100});
    EXPECT_EQ(r.project, ProjectId{10});
    EXPECT_EQ(r.gateway, GatewayId{0});
  }
  EXPECT_EQ(gw.jobs_submitted(), 2u);
}

TEST_F(GatewayFixture, FullCoverageAttachesAllAttributes) {
  recorder.attach(pool);
  GatewayConfig c = config();
  c.attribute_coverage = 1.0;
  Gateway gw(engine, pool, GatewayId{0}, c);
  Rng rng(2);
  for (int i = 0; i < 20; ++i) {
    gw.submit(eu(std::string("u").append(std::to_string(i))), spec(), rng);
  }
  engine.run();
  for (const auto& r : db.jobs()) EXPECT_TRUE(r.gateway_end_user.valid());
}

TEST_F(GatewayFixture, ZeroCoverageAttachesNone) {
  recorder.attach(pool);
  GatewayConfig c = config();
  c.attribute_coverage = 0.0;
  Gateway gw(engine, pool, GatewayId{0}, c);
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    gw.submit(eu(std::string("u").append(std::to_string(i))), spec(), rng);
  }
  engine.run();
  for (const auto& r : db.jobs()) EXPECT_FALSE(r.gateway_end_user.valid());
}

TEST_F(GatewayFixture, PartialCoverageApproximatesRate) {
  recorder.attach(pool);
  GatewayConfig c = config();
  c.attribute_coverage = 0.7;
  Gateway gw(engine, pool, GatewayId{0}, c);
  Rng rng(4);
  constexpr int kN = 2000;
  for (int i = 0; i < kN; ++i) gw.submit(eu("u"), spec(), rng);
  engine.run_until(kYear);
  int with = 0;
  for (const auto& r : db.jobs()) {
    if (r.gateway_end_user.valid()) ++with;
  }
  EXPECT_GT(db.jobs().size(), 100u);
  EXPECT_NEAR(static_cast<double>(with) / static_cast<double>(db.jobs().size()),
              0.7, 0.05);
}

TEST_F(GatewayFixture, ConfigValidation) {
  GatewayConfig c = config();
  c.targets.clear();
  EXPECT_THROW(Gateway(engine, pool, GatewayId{0}, c), PreconditionError);
  c = config();
  c.attribute_coverage = 1.5;
  EXPECT_THROW(Gateway(engine, pool, GatewayId{0}, c), PreconditionError);
}

TEST_F(GatewayFixture, FailingJobSpecProducesFailedRecord) {
  recorder.attach(pool);
  Gateway gw(engine, pool, GatewayId{0}, config());
  Rng rng(6);
  GatewayJobSpec s = spec();
  s.fails = true;
  s.fail_after = 5 * kMinute;
  gw.submit(eu("alice"), s, rng);
  engine.run();
  ASSERT_EQ(db.jobs().size(), 1u);
  EXPECT_EQ(db.jobs()[0].final_state, JobState::kFailed);
}

}  // namespace
}  // namespace tg
