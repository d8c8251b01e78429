// Unit-level checks of the traffic generator: each archetype produces the
// record signature its modality is supposed to leave behind.
#include <gtest/gtest.h>

#include <set>

#include "workload/scenario.hpp"

namespace tg {
namespace {

/// A scenario with exactly one archetype populated: the builtin registry
/// with every count zeroed except the named spec's.
ArchetypeRegistry only(std::string_view name, int count) {
  ArchetypeRegistry reg = ArchetypeRegistry::builtin();
  for (const ArchetypeSpec& spec : reg.specs()) reg.set_count(spec.name, 0);
  reg.set_count(name, count);
  return reg;
}

Scenario single_archetype(std::string_view name, int count,
                          std::uint64_t seed = 5,
                          Duration horizon = 60 * kDay) {
  return Scenario(ScenarioConfig::defaults()
                      .with_seed(seed)
                      .with_horizon(horizon)
                      .with_registry(only(name, count)));
}

TEST(Generator, CapacityUsersLeavePlainJobRecords) {
  Scenario s = single_archetype("capacity", 10);
  s.run();
  ASSERT_GT(s.db().jobs().size(), 50u);
  for (const JobRecord& r : s.db().jobs()) {
    EXPECT_FALSE(r.gateway.valid());
    EXPECT_FALSE(r.workflow.valid());
    EXPECT_FALSE(r.coallocated);
    EXPECT_FALSE(r.interactive);
  }
  const auto campaigns = s.generator().campaigns();
  EXPECT_GT(campaigns[static_cast<std::size_t>(Modality::kCapacityBatch)],
            0u);
}

TEST(Generator, CapabilityJobsAreHuge) {
  Scenario s = single_archetype("capability", 10);
  s.run();
  ASSERT_GT(s.db().jobs().size(), 3u);
  for (const JobRecord& r : s.db().jobs()) {
    const ComputeResource& res = s.platform().compute_at(r.resource);
    EXPECT_GE(static_cast<double>(r.nodes) / res.nodes, 0.45);
    EXPECT_GE(res.nodes, 256);  // only big machines
  }
}

TEST(Generator, GatewayEndUsersDriveCommunityAccounts) {
  Scenario s(ScenarioConfig::defaults()
                 .with_seed(6)
                 .with_horizon(60 * kDay)
                 .with_registry(only("gateway", 30))
                 .with_gateway_adoption_ramp(0.0));
  s.run();
  ASSERT_GT(s.db().jobs().size(), 100u);
  std::set<UserId> accounts;
  for (const JobRecord& r : s.db().jobs()) {
    EXPECT_TRUE(r.gateway.valid());
    accounts.insert(r.user);
  }
  // All jobs flow through the (few) community accounts.
  EXPECT_LE(accounts.size(), s.population().gateway_configs.size());
}

TEST(Generator, WorkflowUsersMixTaggedAndBursty) {
  Scenario s = single_archetype("workflow", 15);
  s.run();
  ASSERT_GT(s.db().jobs().size(), 300u);
  long tagged = 0;
  long untagged = 0;
  for (const JobRecord& r : s.db().jobs()) {
    (r.workflow.valid() ? tagged : untagged) += 1;
  }
  // engine_prob = 0.5: both kinds must appear in quantity.
  EXPECT_GT(tagged, 50);
  EXPECT_GT(untagged, 50);
}

TEST(Generator, CoupledUsersProduceCoallocatedPairs) {
  Scenario s = single_archetype("coupled", 8);
  s.run();
  ASSERT_GT(s.db().jobs().size(), 4u);
  std::map<SimTime, int> by_start;
  for (const JobRecord& r : s.db().jobs()) {
    EXPECT_TRUE(r.coallocated);
    ++by_start[r.start_time];
  }
  // Members start simultaneously in pairs.
  for (const auto& [t, n] : by_start) EXPECT_GE(n, 2);
}

TEST(Generator, VizUsersProduceSessionsAndInteractiveJobs) {
  Scenario s = single_archetype("viz", 10);
  s.run();
  EXPECT_GT(s.db().sessions().size(), 10u);
  for (const SessionRecord& rec : s.db().sessions()) EXPECT_TRUE(rec.viz);
  int interactive = 0;
  for (const JobRecord& r : s.db().jobs()) {
    if (r.interactive) {
      ++interactive;
      EXPECT_TRUE(r.viz_resource);
    }
  }
  EXPECT_GT(interactive, 10);
}

TEST(Generator, DataUsersProduceTransfers) {
  Scenario s = single_archetype("data", 10);
  s.run();
  ASSERT_GT(s.db().transfers().size(), 30u);
  for (const TransferRecord& r : s.db().transfers()) {
    EXPECT_GE(r.bytes, 1e10);
    EXPECT_NE(r.src, r.dst);
  }
}

TEST(Generator, ExploratoryUsersFailOften) {
  Scenario s = single_archetype("exploratory", 30);
  s.run();
  ASSERT_GT(s.db().jobs().size(), 50u);
  long failed = 0;
  for (const JobRecord& r : s.db().jobs()) {
    EXPECT_EQ(r.nodes, 1);
    if (r.final_state == JobState::kFailed) ++failed;
  }
  const double frac =
      static_cast<double>(failed) / static_cast<double>(s.db().jobs().size());
  EXPECT_NEAR(frac, 0.30, 0.12);
}

TEST(Generator, CampaignCountersTrackModalities) {
  Scenario s = single_archetype("viz", 5);
  s.run();
  const auto& campaigns = s.generator().campaigns();
  for (std::size_t m = 0; m < kModalityCount; ++m) {
    if (m == static_cast<std::size_t>(Modality::kRemoteInteractive)) {
      EXPECT_GT(campaigns[m], 0u);
    } else {
      EXPECT_EQ(campaigns[m], 0u);
    }
  }
}

}  // namespace
}  // namespace tg
