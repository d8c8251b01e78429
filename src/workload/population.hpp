// Population synthesis: accounts, projects, gateways and ground truth.
#pragma once

#include <string>
#include <vector>

#include "core/modality.hpp"
#include "core/scoring.hpp"
#include "gateway/gateway.hpp"
#include "infra/community.hpp"
#include "infra/platform.hpp"
#include "util/rng.hpp"
#include "util/string_pool.hpp"
#include "workload/archetype_registry.hpp"
#include "workload/archetypes.hpp"

namespace tg {

/// One synthetic account user with their behavioural assignment.
struct SyntheticUser {
  UserId id;
  Modality modality = Modality::kCapacityBatch;
  /// Index of this user's spec in the population's ArchetypeRegistry — the
  /// generator resolves arrival rate and campaign behavior through it.
  std::size_t archetype = 0;
  /// Preferred compute resources (most users stick to one or two).
  std::vector<ResourceId> preferred;
  /// Multiplies the archetype's campaign rate (population heterogeneity).
  double activity_scale = 1.0;
  /// The user produces no activity before this time (adoption ramp).
  SimTime active_from = 0;
};

/// A gateway end-user label with its activity parameters.
struct GatewayEndUser {
  std::string label;
  /// `label` interned into Population::end_user_pool; what the generator
  /// hands to Gateway::submit (the hot path never touches the string).
  EndUserId id;
  std::size_t gateway_index = 0;
  double activity_scale = 1.0;
  SimTime active_from = 0;
};

struct PopulationConfig {
  /// Which archetypes exist and how many actors each gets. Empty means the
  /// canonical builtin registry.
  ArchetypeRegistry registry;
  double gateway_attribute_coverage = 0.9;
  /// Fraction of gateway end users that adopt over the horizon (uniformly
  /// spread activation) instead of being active from t=0. Drives the
  /// gateway-growth curve of figure F1.
  double gateway_adoption_ramp = 0.6;
  Duration horizon = kYear;
};

/// Everything the generator needs about who exists.
struct Population {
  /// The (resolved) registry this population was built from; users index
  /// into it via SyntheticUser::archetype.
  ArchetypeRegistry registry;
  Community community;
  std::vector<SyntheticUser> users;
  std::vector<GatewayConfig> gateway_configs;  ///< community accounts included
  std::vector<GatewayEndUser> gateway_end_users;
  /// Interned end-user labels; ids are dense [0, gateway_end_users.size()).
  /// The UsageDatabase borrows this pool to resolve record attributes back
  /// to labels at the I/O boundary.
  StringPool end_user_pool;
  GroundTruth truth;  ///< primary modality per account user (community
                      ///< accounts are labelled kGateway)
};

/// Builds accounts, projects, gateway configs and ground truth. The
/// gateways are the paper's three (nanoHUB, CIPRES, GridChem) and target
/// the large batch machines; viz users prefer the viz systems.
[[nodiscard]] Population build_population(const Platform& platform,
                                          const PopulationConfig& config,
                                          Rng& rng);

}  // namespace tg
