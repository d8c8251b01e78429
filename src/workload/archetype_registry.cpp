#include "workload/archetype_registry.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace tg {

ArchetypeSpec ArchetypeSpec::data_intensive(std::string name, int count,
                                            DataAccessSpec data) {
  data.enabled = true;
  CapacityParams behavior;
  behavior.campaigns_per_week = 2.0;
  behavior.jobs_per_campaign_min = 1;
  behavior.jobs_per_campaign_max = 4;
  behavior.cores_min = 8;
  behavior.cores_max = 64;
  behavior.runtime_mean_hours = 1.0;
  behavior.runtime_cv = 1.0;
  behavior.fail_prob = 0.03;
  behavior.kill_prob = 0.03;
  ArchetypeSpec spec;
  spec.name = std::move(name);
  spec.truth = Modality::kDataCentric;
  spec.count = count;
  spec.per_week = behavior.campaigns_per_week;
  spec.preferred_count = 2;
  spec.prefer_viz = false;
  spec.min_nodes = 1;
  spec.behavior = behavior;
  spec.data = data;
  return spec;
}

ArchetypeRegistry& ArchetypeRegistry::add(ArchetypeSpec spec) {
  TG_REQUIRE(!spec.name.empty(), "archetype spec needs a name");
  TG_REQUIRE(spec.count >= 0, "archetype count must be non-negative");
  const std::size_t i = index_of(spec.name);
  if (i < specs_.size()) {
    specs_[i] = std::move(spec);
  } else {
    specs_.push_back(std::move(spec));
  }
  return *this;
}

std::size_t ArchetypeRegistry::index_of(std::string_view name) const {
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (specs_[i].name == name) return i;
  }
  return specs_.size();
}

const ArchetypeSpec* ArchetypeRegistry::find(std::string_view name) const {
  const std::size_t i = index_of(name);
  return i < specs_.size() ? &specs_[i] : nullptr;
}

ArchetypeRegistry& ArchetypeRegistry::set_count(std::string_view name,
                                                int count) {
  const std::size_t i = index_of(name);
  TG_REQUIRE(i < specs_.size(), "unknown archetype '" << name << "'");
  specs_[i].count = count;
  return *this;
}

ArchetypeRegistry& ArchetypeRegistry::set_rate(std::string_view name,
                                               double per_week) {
  const std::size_t i = index_of(name);
  TG_REQUIRE(i < specs_.size(), "unknown archetype '" << name << "'");
  specs_[i].per_week = per_week;
  return *this;
}

int ArchetypeRegistry::account_users() const {
  int total = 0;
  for (const ArchetypeSpec& s : specs_) {
    if (!s.is_gateway()) total += s.count;
  }
  return total;
}

void ArchetypeRegistry::scale(double factor) {
  TG_REQUIRE(factor > 0.0, "scale factor must be positive, got " << factor);
  for (ArchetypeSpec& s : specs_) {
    if (s.count > 0) {
      s.count = std::max(1, static_cast<int>(std::lround(s.count * factor)));
    }
  }
}

ArchetypeRegistry ArchetypeRegistry::builtin(const ArchetypeParams& params) {
  // Spec order IS the population RNG draw order: it must match the retired
  // hand-written loops (accounts first, the gateway spec last).
  ArchetypeRegistry reg;
  {
    ArchetypeSpec s;
    s.name = "capacity";
    s.truth = Modality::kCapacityBatch;
    s.count = 300;
    s.per_week = params.capacity.campaigns_per_week;
    s.preferred_count = 2;
    s.behavior = params.capacity;
    reg.add(std::move(s));
  }
  {
    ArchetypeSpec s;
    s.name = "capability";
    s.truth = Modality::kCapabilityBatch;
    s.count = 30;
    s.per_week = params.capability.campaigns_per_week;
    s.preferred_count = 1;
    s.min_nodes = 256;  // capability users need genuinely large machines
    s.behavior = params.capability;
    reg.add(std::move(s));
  }
  {
    ArchetypeSpec s;
    s.name = "workflow";
    s.truth = Modality::kWorkflowEnsemble;
    s.count = 100;
    s.per_week = params.workflow.campaigns_per_week;
    s.preferred_count = 2;
    s.behavior = params.workflow;
    reg.add(std::move(s));
  }
  {
    ArchetypeSpec s;
    s.name = "coupled";
    s.truth = Modality::kTightlyCoupled;
    s.count = 16;
    s.per_week = params.coupled.campaigns_per_week;
    s.preferred_count = 2;
    s.min_nodes = 64;
    s.behavior = params.coupled;
    reg.add(std::move(s));
  }
  {
    ArchetypeSpec s;
    s.name = "viz";
    s.truth = Modality::kRemoteInteractive;
    s.count = 40;
    s.per_week = params.viz.sessions_per_week;
    s.preferred_count = 1;
    s.prefer_viz = true;
    s.behavior = params.viz;
    reg.add(std::move(s));
  }
  {
    ArchetypeSpec s;
    s.name = "data";
    s.truth = Modality::kDataCentric;
    s.count = 40;
    s.per_week = params.data.transfers_per_week;
    s.preferred_count = 1;
    s.behavior = params.data;
    reg.add(std::move(s));
  }
  {
    ArchetypeSpec s;
    s.name = "exploratory";
    s.truth = Modality::kExploratory;
    s.count = 140;
    s.per_week = params.exploratory.bursts_per_week;
    s.preferred_count = 1;
    s.behavior = params.exploratory;
    reg.add(std::move(s));
  }
  {
    ArchetypeSpec s;
    s.name = "gateway";
    s.truth = Modality::kGateway;
    s.count = 240;
    s.per_week = params.gateway.sessions_per_week;
    s.preferred_count = 3;  // community-account targets
    s.min_nodes = 96;
    s.behavior = params.gateway;
    reg.add(std::move(s));
  }
  return reg;
}

}  // namespace tg
