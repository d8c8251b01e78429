#include "core/features.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace tg {
namespace {

class FeaturesFixture : public ::testing::Test {
 protected:
  Platform platform = mini_platform();  // ClusterA: 16 nodes x 8 cores
  UsageDatabase db;
  FeatureExtractor extractor{platform};

  JobRecord job(UserId user, int nodes, SimTime submit, SimTime start,
                Duration runtime, double nu = 10.0) {
    JobRecord r;
    r.resource = platform.compute()[0].id;
    r.user = user;
    r.project = ProjectId{0};
    r.submit_time = submit;
    r.start_time = start;
    r.end_time = start + runtime;
    r.nodes = nodes;
    r.cores_per_node = 8;
    r.requested_walltime = runtime;
    r.charged_nu = nu;
    r.charged_su = nu;
    return r;
  }
};

TEST_F(FeaturesFixture, BasicAggregates) {
  db.add(job(UserId{1}, 2, 0, 0, kHour, 5.0));
  db.add(job(UserId{1}, 4, kHour, kHour, 2 * kHour, 20.0));
  const UserFeatures f = extractor.extract_user(db, UserId{1}, 0, kDay);
  EXPECT_EQ(f.jobs, 2);
  EXPECT_DOUBLE_EQ(f.total_nu, 25.0);
  EXPECT_EQ(f.max_width_cores, 32);
  EXPECT_DOUBLE_EQ(f.mean_width_cores, 24.0);
  EXPECT_NEAR(f.mean_runtime_s, 1.5 * 3600, 1e-9);
  EXPECT_DOUBLE_EQ(f.max_machine_fraction, 4.0 / 16.0);
  EXPECT_EQ(f.distinct_resources, 1);
}

TEST_F(FeaturesFixture, WindowFiltersByEndTime) {
  db.add(job(UserId{1}, 1, 0, 0, kHour));
  db.add(job(UserId{1}, 1, 0, 5 * kDay, kHour));
  EXPECT_EQ(extractor.extract_user(db, UserId{1}, 0, kDay).jobs, 1);
  EXPECT_EQ(extractor.extract_user(db, UserId{1}, 0, 10 * kDay).jobs, 2);
  EXPECT_EQ(extractor.extract_user(db, UserId{1}, 2 * kDay, 10 * kDay).jobs,
            1);
}

TEST_F(FeaturesFixture, FractionsFromTags) {
  JobRecord g = job(UserId{2}, 1, 0, 0, kHour);
  g.gateway = GatewayId{0};
  db.add(g);
  JobRecord w = job(UserId{2}, 1, 0, 0, kHour);
  w.workflow = WorkflowId{1};
  db.add(w);
  JobRecord c = job(UserId{2}, 1, 0, 0, kHour);
  c.coallocated = true;
  db.add(c);
  JobRecord v = job(UserId{2}, 1, 0, 0, kHour);
  v.interactive = true;
  db.add(v);
  const UserFeatures f = extractor.extract_user(db, UserId{2}, 0, kDay);
  EXPECT_DOUBLE_EQ(f.gateway_fraction, 0.25);
  EXPECT_DOUBLE_EQ(f.workflow_fraction, 0.25);
  EXPECT_DOUBLE_EQ(f.coalloc_fraction, 0.25);
  EXPECT_DOUBLE_EQ(f.viz_fraction, 0.25);
}

TEST_F(FeaturesFixture, FailureFraction) {
  JobRecord a = job(UserId{3}, 1, 0, 0, kHour);
  a.final_state = JobState::kFailed;
  db.add(a);
  db.add(job(UserId{3}, 1, 0, 0, kHour));
  const UserFeatures f = extractor.extract_user(db, UserId{3}, 0, kDay);
  EXPECT_DOUBLE_EQ(f.failed_fraction, 0.5);
}

TEST_F(FeaturesFixture, BurstDetectionFindsManualEnsembles) {
  // 10 identical-geometry jobs within minutes: a manual sweep.
  for (int i = 0; i < 10; ++i) {
    db.add(job(UserId{4}, 2, i * kMinute, kHour, kHour));
  }
  const UserFeatures f = extractor.extract_user(db, UserId{4}, 0, kDay);
  EXPECT_DOUBLE_EQ(f.burst_fraction, 1.0);
}

TEST_F(FeaturesFixture, SpreadJobsAreNotBursts) {
  // Same geometry but a day apart each.
  for (int i = 0; i < 10; ++i) {
    db.add(job(UserId{5}, 2, i * kDay, i * kDay, kHour));
  }
  const UserFeatures f =
      extractor.extract_user(db, UserId{5}, 0, 100 * kDay);
  EXPECT_DOUBLE_EQ(f.burst_fraction, 0.0);
}

TEST_F(FeaturesFixture, DifferentGeometryBreaksBursts) {
  // Many near-simultaneous jobs, but all different widths.
  for (int i = 0; i < 10; ++i) {
    db.add(job(UserId{6}, 1 + i, i * kMinute, kHour, kHour));
  }
  const UserFeatures f = extractor.extract_user(db, UserId{6}, 0, kDay);
  EXPECT_DOUBLE_EQ(f.burst_fraction, 0.0);
}

TEST_F(FeaturesFixture, TransfersAndSessionsCounted) {
  TransferRecord t;
  t.user = UserId{7};
  t.bytes = 5e12;
  t.end_time = kHour;
  db.add(t);
  SessionRecord s;
  s.user = UserId{7};
  s.end_time = 2 * kHour;
  s.viz = true;
  db.add(s);
  const UserFeatures f = extractor.extract_user(db, UserId{7}, 0, kDay);
  EXPECT_EQ(f.jobs, 0);
  EXPECT_DOUBLE_EQ(f.bytes_transferred, 5e12);
  EXPECT_EQ(f.sessions, 1);
  EXPECT_EQ(f.viz_sessions, 1);
  // bytes_per_nu with zero NU returns raw bytes.
  EXPECT_DOUBLE_EQ(f.bytes_per_nu(), 5e12);
}

TEST_F(FeaturesFixture, ExtractCoversAllActiveUsers) {
  db.add(job(UserId{1}, 1, 0, 0, kHour));
  db.add(job(UserId{3}, 1, 0, 0, kHour));
  TransferRecord t;
  t.user = UserId{9};
  t.bytes = 1e9;
  t.end_time = kHour;
  db.add(t);
  const auto all = extractor.extract(db, 0, kDay);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].user, UserId{1});
  EXPECT_EQ(all[1].user, UserId{3});
  EXPECT_EQ(all[2].user, UserId{9});
}

TEST_F(FeaturesFixture, ExtractMatchesExtractUser) {
  for (int i = 0; i < 20; ++i) {
    db.add(job(UserId{i % 3}, 1 + i % 4, i * kHour, i * kHour, kHour));
  }
  const auto all = extractor.extract(db, 0, kYear);
  for (const auto& f : all) {
    const UserFeatures single =
        extractor.extract_user(db, f.user, 0, kYear);
    EXPECT_EQ(f.jobs, single.jobs);
    EXPECT_DOUBLE_EQ(f.total_nu, single.total_nu);
    EXPECT_DOUBLE_EQ(f.burst_fraction, single.burst_fraction);
  }
}

TEST_F(FeaturesFixture, ConfigValidation) {
  FeatureConfig bad;
  bad.burst_min_jobs = 1;
  EXPECT_THROW(FeatureExtractor(platform, bad), PreconditionError);
}

class BurstThreshold : public ::testing::TestWithParam<int> {};

TEST_P(BurstThreshold, ExactlyAtThresholdCounts) {
  Platform platform = mini_platform();
  UsageDatabase db;
  FeatureConfig cfg;
  cfg.burst_min_jobs = GetParam();
  const FeatureExtractor extractor(platform, cfg);
  JobRecord proto;
  proto.resource = platform.compute()[0].id;
  proto.user = UserId{1};
  proto.nodes = 2;
  proto.cores_per_node = 8;
  proto.requested_walltime = kHour;
  proto.start_time = kHour;
  proto.end_time = 2 * kHour;
  for (int i = 0; i < GetParam(); ++i) {
    proto.submit_time = i * kMinute;
    db.add(proto);
  }
  EXPECT_DOUBLE_EQ(
      extractor.extract_user(db, UserId{1}, 0, kDay).burst_fraction, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, BurstThreshold,
                         ::testing::Values(2, 4, 8, 16));

}  // namespace
}  // namespace tg
