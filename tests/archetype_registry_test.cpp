// Unit tests for the composable archetype registry (the redesigned
// population API): add/replace semantics, the builtin legacy order, count
// overrides, scaling, and the data-intensive spec.
#include "workload/archetype_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "infra/platform.hpp"
#include "util/error.hpp"
#include "workload/population.hpp"
#include "workload/scenario.hpp"

namespace tg {
namespace {

TEST(ArchetypeRegistry, BuiltinKeepsLegacyOrderAndCounts) {
  const ArchetypeRegistry reg = ArchetypeRegistry::builtin();
  ASSERT_EQ(reg.size(), 8u);
  // The builtin order IS the population RNG draw order — appending new
  // specs must never reorder it. The counts are the legacy defaults.
  const char* expected[] = {"capacity", "capability", "workflow", "coupled",
                            "viz",      "data",       "exploratory",
                            "gateway"};
  const int counts[] = {300, 30, 100, 16, 40, 40, 140, 240};
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(reg.at(i).name, expected[i]) << i;
    EXPECT_EQ(reg.at(i).count, counts[i]) << i;
  }
  EXPECT_TRUE(reg.find("gateway")->is_gateway());
  EXPECT_EQ(reg.account_users(), 300 + 30 + 100 + 16 + 40 + 40 + 140);
  // No builtin spec carries a data trait: the data grid is opt-in.
  for (const ArchetypeSpec& spec : reg.specs()) {
    EXPECT_FALSE(spec.data.enabled) << spec.name;
  }
}

TEST(ArchetypeRegistry, AddReplacesInPlaceByName) {
  ArchetypeRegistry reg = ArchetypeRegistry::builtin();
  const std::size_t viz_index = reg.index_of("viz");
  ArchetypeSpec replacement = reg.at(viz_index);
  replacement.count = 123;
  reg.add(replacement);
  EXPECT_EQ(reg.size(), 8u);  // replaced, not appended
  EXPECT_EQ(reg.index_of("viz"), viz_index);
  EXPECT_EQ(reg.find("viz")->count, 123);
  // A new name appends after the builtins.
  reg.add(ArchetypeSpec::data_intensive("hep", 10));
  EXPECT_EQ(reg.size(), 9u);
  EXPECT_EQ(reg.index_of("hep"), 8u);
}

TEST(ArchetypeRegistry, SetCountAndRateRequireExistingName) {
  ArchetypeRegistry reg = ArchetypeRegistry::builtin();
  reg.set_count("capacity", 7);
  EXPECT_EQ(reg.find("capacity")->count, 7);
  EXPECT_THROW(reg.set_count("nope", 1), PreconditionError);
}

TEST(ArchetypeRegistry, ScaleMatchesLegacyMixScaling) {
  // with_scale's registry path must round exactly like the legacy mix
  // path (lround, floor 1 for counts that started positive).
  ArchetypeRegistry reg = ArchetypeRegistry::builtin();
  reg.set_count("capability", 1).set_count("viz", 0);
  ArchetypeRegistry scaled = reg;
  scaled.scale(0.4);
  for (const ArchetypeSpec& spec : reg.specs()) {
    const int before = spec.count;
    const int after = scaled.find(spec.name)->count;
    if (before <= 0) {
      EXPECT_EQ(after, before) << spec.name;
    } else {
      EXPECT_EQ(after,
                std::max(1, static_cast<int>(std::lround(before * 0.4))))
          << spec.name;
    }
  }
}

TEST(ArchetypeRegistry, DataIntensiveSpecIsDataCentricWithEnabledTrait) {
  const ArchetypeSpec spec = ArchetypeSpec::data_intensive();
  EXPECT_EQ(spec.truth, Modality::kDataCentric);
  EXPECT_TRUE(spec.data.enabled);
  EXPECT_FALSE(spec.is_gateway());
  EXPECT_GT(spec.count, 0);
}

TEST(ArchetypeRegistry, AppendedSpecJoinsThePopulation) {
  PopulationConfig cfg;
  cfg.registry = ArchetypeRegistry::builtin();
  for (const ArchetypeSpec& spec : cfg.registry.specs()) {
    cfg.registry.set_count(spec.name, 0);
  }
  cfg.registry.set_count("capacity", 5);
  cfg.registry.add(ArchetypeSpec::data_intensive("hep", 12));
  Rng rng(3);
  const Platform platform = teragrid_2010();
  const Population pop = build_population(platform, cfg, rng);
  ASSERT_EQ(pop.users.size(), 17u);
  std::size_t hep = 0;
  const std::size_t hep_index = pop.registry.index_of("hep");
  for (const SyntheticUser& u : pop.users) {
    if (u.archetype == hep_index) {
      ++hep;
      EXPECT_EQ(pop.truth.of(u.id), Modality::kDataCentric);
    }
  }
  EXPECT_EQ(hep, 12u);
}

}  // namespace
}  // namespace tg
