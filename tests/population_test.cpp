#include "workload/population.hpp"

#include <gtest/gtest.h>

#include <set>

namespace tg {
namespace {

PopulationConfig small_config() {
  PopulationConfig c;
  c.registry = ArchetypeRegistry::builtin()
                   .set_count("capacity", 20)
                   .set_count("capability", 5)
                   .set_count("gateway", 30)
                   .set_count("workflow", 10)
                   .set_count("coupled", 4)
                   .set_count("viz", 6)
                   .set_count("data", 6)
                   .set_count("exploratory", 9);
  return c;
}

TEST(Population, AccountCountsMatchMix) {
  const Platform p = teragrid_2010();
  Rng rng(1);
  const auto cfg = small_config();
  const Population pop = build_population(p, cfg, rng);
  EXPECT_EQ(pop.users.size(),
            static_cast<std::size_t>(cfg.registry.account_users()));
  // Community holds account users + one community account per gateway.
  EXPECT_EQ(pop.community.user_count(), pop.users.size() + 3);
  EXPECT_EQ(pop.gateway_configs.size(), 3u);
  EXPECT_EQ(pop.gateway_end_users.size(), 30u);
}

TEST(Population, GroundTruthAlignedWithUsers) {
  const Platform p = teragrid_2010();
  Rng rng(2);
  const Population pop = build_population(p, small_config(), rng);
  ASSERT_EQ(pop.truth.primary.size(), pop.community.user_count());
  for (const SyntheticUser& u : pop.users) {
    EXPECT_EQ(pop.truth.of(u.id), u.modality);
  }
  for (const GatewayConfig& gc : pop.gateway_configs) {
    EXPECT_EQ(pop.truth.of(gc.community_account), Modality::kGateway);
  }
}

TEST(Population, ModalityMixCounts) {
  const Platform p = teragrid_2010();
  Rng rng(3);
  const auto cfg = small_config();
  const Population pop = build_population(p, cfg, rng);
  std::array<int, kModalityCount> counts{};
  for (const SyntheticUser& u : pop.users) {
    ++counts[static_cast<std::size_t>(u.modality)];
  }
  EXPECT_EQ(counts[static_cast<std::size_t>(Modality::kCapacityBatch)], 20);
  EXPECT_EQ(counts[static_cast<std::size_t>(Modality::kCapabilityBatch)], 5);
  EXPECT_EQ(counts[static_cast<std::size_t>(Modality::kGateway)], 0);
  EXPECT_EQ(counts[static_cast<std::size_t>(Modality::kWorkflowEnsemble)], 10);
}

TEST(Population, CapabilityUsersPreferLargeMachines) {
  const Platform p = teragrid_2010();
  Rng rng(4);
  const Population pop = build_population(p, small_config(), rng);
  for (const SyntheticUser& u : pop.users) {
    if (u.modality != Modality::kCapabilityBatch) continue;
    for (ResourceId r : u.preferred) {
      EXPECT_GE(p.compute_at(r).nodes, 256) << p.compute_at(r).name;
    }
  }
}

TEST(Population, VizUsersPreferVizSystems) {
  const Platform p = teragrid_2010();
  Rng rng(5);
  const Population pop = build_population(p, small_config(), rng);
  for (const SyntheticUser& u : pop.users) {
    if (u.modality != Modality::kRemoteInteractive) continue;
    for (ResourceId r : u.preferred) {
      EXPECT_TRUE(p.compute_at(r).interactive_viz);
    }
  }
}

TEST(Population, GatewayTargetsAreBatchMachines) {
  const Platform p = teragrid_2010();
  Rng rng(6);
  const Population pop = build_population(p, small_config(), rng);
  for (const GatewayConfig& gc : pop.gateway_configs) {
    EXPECT_FALSE(gc.targets.empty());
    for (ResourceId r : gc.targets) {
      EXPECT_FALSE(p.compute_at(r).interactive_viz);
    }
  }
}

TEST(Population, AdoptionRampSpreadsActivation) {
  const Platform p = teragrid_2010();
  Rng rng(7);
  PopulationConfig cfg = small_config();
  cfg.registry.set_count("gateway", 200);
  cfg.gateway_adoption_ramp = 1.0;
  cfg.horizon = kYear;
  const Population pop = build_population(p, cfg, rng);
  int late = 0;
  for (const auto& eu : pop.gateway_end_users) {
    if (eu.active_from > kYear / 2) ++late;
  }
  // Uniform activation: roughly half activate in the second half-year.
  EXPECT_NEAR(late, 100, 30);
}

TEST(Population, NoRampMeansActiveFromStart) {
  const Platform p = teragrid_2010();
  Rng rng(8);
  PopulationConfig cfg = small_config();
  cfg.gateway_adoption_ramp = 0.0;
  const Population pop = build_population(p, cfg, rng);
  for (const auto& eu : pop.gateway_end_users) {
    EXPECT_EQ(eu.active_from, 0);
  }
}

TEST(Population, DeterministicForSeed) {
  const Platform p = teragrid_2010();
  Rng r1(9);
  Rng r2(9);
  const Population a = build_population(p, small_config(), r1);
  const Population b = build_population(p, small_config(), r2);
  ASSERT_EQ(a.users.size(), b.users.size());
  for (std::size_t i = 0; i < a.users.size(); ++i) {
    EXPECT_EQ(a.users[i].modality, b.users[i].modality);
    EXPECT_EQ(a.users[i].preferred, b.users[i].preferred);
    EXPECT_DOUBLE_EQ(a.users[i].activity_scale, b.users[i].activity_scale);
  }
}

TEST(Population, EndUserLabelsUnique) {
  const Platform p = teragrid_2010();
  Rng rng(10);
  const Population pop = build_population(p, small_config(), rng);
  std::set<std::string> labels;
  for (const auto& eu : pop.gateway_end_users) labels.insert(eu.label);
  EXPECT_EQ(labels.size(), pop.gateway_end_users.size());
}

TEST(Population, WorksOnMiniPlatform) {
  const Platform p = mini_platform();
  Rng rng(11);
  // Constraint relaxation: even viz/capability archetypes get resources.
  const Population pop = build_population(p, small_config(), rng);
  EXPECT_EQ(pop.users.size(),
            static_cast<std::size_t>(small_config().registry.account_users()));
}

}  // namespace
}  // namespace tg
