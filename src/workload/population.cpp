#include "workload/population.hpp"

#include <algorithm>

#include "util/distributions.hpp"
#include "util/error.hpp"

namespace tg {

namespace {

/// Picks `count` distinct preferred resources, weighted by machine size
/// (bigger machines attract more users), excluding viz systems unless
/// `viz_only` selects exactly those.
std::vector<ResourceId> pick_preferred(const Platform& platform, Rng& rng,
                                       int count, bool viz_only,
                                       int min_nodes = 1) {
  std::vector<ResourceId> eligible;
  std::vector<double> weights;
  const auto collect = [&](bool viz, int min_n) {
    eligible.clear();
    weights.clear();
    for (const ComputeResource& r : platform.compute()) {
      if (r.interactive_viz != viz) continue;
      if (r.nodes < min_n) continue;
      eligible.push_back(r.id);
      weights.push_back(static_cast<double>(r.total_cores()));
    }
  };
  // Relax constraints progressively so small test platforms still work.
  collect(viz_only, min_nodes);
  if (eligible.empty()) collect(viz_only, 1);
  if (eligible.empty()) collect(!viz_only, 1);
  TG_REQUIRE(!eligible.empty(), "no eligible resources for archetype");
  std::vector<ResourceId> out;
  const Discrete picker(weights);
  while (static_cast<int>(out.size()) <
         std::min<int>(count, static_cast<int>(eligible.size()))) {
    const ResourceId pick = eligible[picker.sample(rng)];
    if (std::find(out.begin(), out.end(), pick) == out.end()) {
      out.push_back(pick);
    }
  }
  return out;
}

FieldOfScience random_field(Rng& rng) {
  // Rough 2010 TeraGrid discipline mix by allocation share.
  static const Discrete dist({22, 14, 13, 12, 9, 8, 7, 4, 11});
  return static_cast<FieldOfScience>(dist.sample(rng));
}

}  // namespace

Population build_population(const Platform& platform,
                            const PopulationConfig& config, Rng& rng) {
  TG_REQUIRE(config.gateways >= 1, "need at least one gateway");
  TG_REQUIRE(config.users_per_project >= 1.0, "users_per_project >= 1");
  Population pop;
  Rng prefs = rng.fork("population.preferred");
  Rng scales = rng.fork("population.scales");
  const LogNormal activity = LogNormal::from_mean_cv(1.0, 0.8);

  // Projects are created on demand: a fresh project every
  // ~users_per_project users.
  ProjectId current_project;
  int users_in_project = 0;
  const auto next_project = [&](const char* kind) {
    const double p = 1.0 / config.users_per_project;
    if (!current_project.valid() || users_in_project == 0 ||
        scales.bernoulli(p)) {
      current_project = pop.community.add_project(
          std::string(kind) + "-proj-" +
              std::to_string(pop.community.projects().size()),
          random_field(scales), 2e6);
      users_in_project = 0;
    }
    ++users_in_project;
    return current_project;
  };

  const auto add_account = [&](const ArchetypeSpec& spec,
                               std::size_t archetype,
                               std::vector<ResourceId> preferred) {
    const ProjectId proj = next_project(spec.name.c_str());
    const UserId uid = pop.community.add_user(
        spec.name + "-" + std::to_string(pop.community.user_count()), proj);
    SyntheticUser u;
    u.id = uid;
    u.modality = spec.truth;
    u.archetype = archetype;
    u.preferred = std::move(preferred);
    u.activity_scale = activity.sample(scales);
    pop.users.push_back(u);
    pop.truth.primary.push_back(spec.truth);
    return uid;
  };

  // Specs consume the preference/scale substreams strictly in registry
  // order, so appended specs never perturb the builtins' draws.
  pop.registry = config.registry.empty()
                     ? ArchetypeRegistry::builtin()
                     : config.registry;
  const ArchetypeSpec* gateway_spec = nullptr;
  for (std::size_t a = 0; a < pop.registry.size(); ++a) {
    const ArchetypeSpec& spec = pop.registry.at(a);
    if (spec.is_gateway()) {
      gateway_spec = &spec;
      continue;  // gateway end users are labels, not accounts — see below
    }
    for (int i = 0; i < spec.count; ++i) {
      add_account(spec, a,
                  pick_preferred(platform, prefs, spec.preferred_count,
                                 spec.prefer_viz, spec.min_nodes));
    }
  }

  // Gateways: one community account + project each, targeting the large
  // batch machines (the gateway spec's preference trait).
  const int gw_preferred = gateway_spec ? gateway_spec->preferred_count : 3;
  const bool gw_viz = gateway_spec ? gateway_spec->prefer_viz : false;
  const int gw_min_nodes = gateway_spec ? gateway_spec->min_nodes : 96;
  static const char* kGatewayNames[] = {"nanoHUB", "CIPRES", "GridChem",
                                        "LEAD",    "SIDGrid", "RENCI-Sci"};
  for (int g = 0; g < config.gateways; ++g) {
    const std::string name =
        g < 6 ? kGatewayNames[g] : "gateway-" + std::to_string(g);
    const ProjectId proj = pop.community.add_project(
        name + "-community", FieldOfScience::kOther, 5e6);
    const UserId account = pop.community.add_user(name + "-account", proj);
    pop.truth.primary.push_back(Modality::kGateway);
    // Community accounts are not SyntheticUsers; gateways drive them.
    GatewayConfig gc;
    gc.name = name;
    gc.community_account = account;
    gc.project = proj;
    gc.attribute_coverage = config.gateway_attribute_coverage;
    gc.targets =
        pick_preferred(platform, prefs, gw_preferred, gw_viz, gw_min_nodes);
    pop.gateway_configs.push_back(std::move(gc));
  }

  // Gateway end users: labels with a Zipf-skew over gateways and an
  // adoption ramp for the growth figure.
  const int gateway_end_users = gateway_spec ? gateway_spec->count : 0;
  const Zipf gateway_pick(static_cast<std::size_t>(config.gateways), 1.1);
  for (int i = 0; i < gateway_end_users; ++i) {
    GatewayEndUser eu;
    eu.gateway_index = gateway_pick.sample(scales) - 1;
    eu.label = pop.gateway_configs[eu.gateway_index].name + ":user" +
               std::to_string(i);
    eu.id = pop.end_user_pool.intern(eu.label);
    eu.activity_scale = activity.sample(scales);
    if (scales.bernoulli(config.gateway_adoption_ramp)) {
      eu.active_from = static_cast<SimTime>(
          scales.uniform(0.0, static_cast<double>(config.horizon)));
    }
    pop.gateway_end_users.push_back(std::move(eu));
  }

  TG_CHECK(pop.truth.primary.size() == pop.community.user_count(),
           "ground truth misaligned with community");
  return pop;
}

}  // namespace tg
