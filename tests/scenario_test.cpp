// Integration tests: full simulate -> account -> classify round trips.
#include "workload/scenario.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/scoring.hpp"
#include "util/error.hpp"

namespace tg {
namespace {

ScenarioConfig small_config(std::uint64_t seed = 42) {
  ScenarioConfig c;
  c.seed = seed;
  c.horizon = 30 * kDay;
  c.registry = ArchetypeRegistry::builtin()
                   .set_count("capacity", 25)
                   .set_count("capability", 4)
                   .set_count("gateway", 20)
                   .set_count("workflow", 8)
                   .set_count("coupled", 3)
                   .set_count("viz", 5)
                   .set_count("data", 5)
                   .set_count("exploratory", 10);
  return c;
}

TEST(Scenario, ProducesAllRecordKinds) {
  Scenario s(small_config());
  s.run();
  EXPECT_GT(s.db().jobs().size(), 500u);
  EXPECT_GT(s.db().transfers().size(), 10u);
  EXPECT_GT(s.db().sessions().size(), 5u);
  EXPECT_GT(s.db().total_nu(), 0.0);
}

TEST(Scenario, RunTwiceRejected) {
  Scenario s(small_config());
  s.run();
  EXPECT_THROW(s.run(), PreconditionError);
}

TEST(Scenario, DeterministicAcrossRuns) {
  Scenario a(small_config(7));
  a.run();
  Scenario b(small_config(7));
  b.run();
  ASSERT_EQ(a.db().jobs().size(), b.db().jobs().size());
  EXPECT_DOUBLE_EQ(a.db().total_nu(), b.db().total_nu());
  for (std::size_t i = 0; i < a.db().jobs().size(); ++i) {
    EXPECT_EQ(a.db().jobs()[i].user, b.db().jobs()[i].user);
    EXPECT_EQ(a.db().jobs()[i].end_time, b.db().jobs()[i].end_time);
  }
}

TEST(Scenario, SeedsDiverge) {
  Scenario a(small_config(1));
  a.run();
  Scenario b(small_config(2));
  b.run();
  EXPECT_NE(a.db().jobs().size(), b.db().jobs().size());
}

TEST(Scenario, LedgerMatchesDatabase) {
  Scenario s(small_config());
  s.run();
  EXPECT_NEAR(s.ledger().total_charged(), s.db().total_nu(),
              1e-6 * s.db().total_nu());
}

TEST(Scenario, EveryModalityRepresentedInTruthAndRecords) {
  Scenario s(small_config());
  s.run();
  const RuleClassifier classifier;
  const auto report = s.report(classifier);
  // At 30 days, each archetype group should have produced activity.
  EXPECT_GT(report.row(Modality::kCapacityBatch).primary_users, 0);
  EXPECT_GT(report.row(Modality::kGateway).primary_users, 0);
  EXPECT_GT(report.row(Modality::kWorkflowEnsemble).primary_users, 0);
  EXPECT_GT(report.row(Modality::kRemoteInteractive).primary_users, 0);
  EXPECT_GT(report.row(Modality::kExploratory).primary_users, 0);
  EXPECT_GT(report.gateway_end_users(), 0);
}

TEST(Scenario, ClassifierAccuracyHigh) {
  Scenario s(small_config());
  s.run();
  const RuleClassifier classifier;
  const auto labelled = s.predictions(classifier);
  ASSERT_GT(labelled.truth.size(), 40u);
  const auto cm = score_primary(labelled.truth, labelled.predicted);
  EXPECT_GT(cm.accuracy(), 0.75);
}

TEST(Scenario, GatewayJobsChargedToCommunityAccounts) {
  Scenario s(small_config());
  s.run();
  std::set<UserId> community;
  for (const auto& gc : s.population().gateway_configs) {
    community.insert(gc.community_account);
  }
  int gateway_jobs = 0;
  for (const auto& r : s.db().jobs()) {
    if (r.gateway.valid()) {
      ++gateway_jobs;
      EXPECT_TRUE(community.count(r.user)) << "gateway job on user account";
    } else {
      EXPECT_FALSE(community.count(r.user)) << "direct job on community acct";
    }
  }
  EXPECT_GT(gateway_jobs, 50);
}

TEST(Scenario, RecordsRespectHorizonSubmissionGuard) {
  const auto cfg = small_config();
  Scenario s(cfg);
  s.run();
  for (const auto& r : s.db().jobs()) {
    EXPECT_LT(r.submit_time, cfg.horizon);
    EXPECT_GE(r.end_time, r.start_time);
    EXPECT_GE(r.start_time, r.submit_time);
  }
}

TEST(Scenario, CoallocatedJobsComeInSimultaneousGroups) {
  ScenarioConfig cfg = small_config();
  cfg.registry.set_count("coupled", 8);
  Scenario s(std::move(cfg));
  s.run();
  std::map<SimTime, int> starts;
  for (const auto& r : s.db().jobs()) {
    if (r.coallocated) ++starts[r.start_time];
  }
  ASSERT_FALSE(starts.empty());
  // Co-allocations come in simultaneous pairs (2 sites per campaign).
  int paired = 0;
  int total = 0;
  for (const auto& [t, n] : starts) {
    total += n;
    if (n >= 2) paired += n;
  }
  EXPECT_GT(static_cast<double>(paired) / total, 0.9);
}

TEST(Scenario, MiniPlatformSmoke) {
  ScenarioConfig cfg = small_config();
  cfg.mini_platform = true;
  // nothing big enough to be "capability"
  cfg.registry.set_count("capability", 0);
  cfg.registry.set_count("coupled", 2);
  Scenario s(std::move(cfg));
  s.run();
  EXPECT_GT(s.db().jobs().size(), 100u);
}

TEST(Scenario, AttributeCoverageControlsEndUserVisibility) {
  ScenarioConfig full = small_config();
  full.gateway_attribute_coverage = 1.0;
  Scenario a(std::move(full));
  a.run();
  ScenarioConfig none = small_config();
  none.gateway_attribute_coverage = 0.0;
  Scenario b(std::move(none));
  b.run();
  const RuleClassifier classifier;
  EXPECT_GT(a.report(classifier).gateway_end_users(), 0);
  EXPECT_EQ(b.report(classifier).gateway_end_users(), 0);
}

}  // namespace
}  // namespace tg
