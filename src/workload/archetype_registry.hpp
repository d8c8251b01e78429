// The composable archetype registry.
//
// An ArchetypeSpec names one behavioural archetype and composes it from
// orthogonal traits:
//   * population  — how many synthetic actors exist (`count`),
//   * arrival     — the open-loop Poisson rate (`per_week`),
//   * preference  — how preferred resources are picked (count / viz /
//                   minimum machine size),
//   * behavior    — the campaign body's parameter struct (a variant over
//                   the per-modality parameter sets of archetypes.hpp),
//   * data        — the optional DataAccessSpec (data/access_profile.hpp),
//   * truth       — the ground-truth modality label.
//
// The ArchetypeRegistry is an ordered collection of specs. Order matters:
// population synthesis consumes its RNG substreams spec by spec, so the
// canonical builtin() order reproduces the legacy enum-and-switch
// generator byte for byte (the compat shim every existing experiment rides
// on), while appended specs draw strictly after the builtins and therefore
// never perturb them.
//
// A genuinely new modality is now a new *combination* instead of a new
// enum value and switch arm — e.g. the data-intensive archetype is just
// capacity-batch behavior plus an enabled DataAccessSpec and a
// kDataCentric truth label (see data_intensive()).
#pragma once

#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/modality.hpp"
#include "data/access_profile.hpp"
#include "workload/archetypes.hpp"

namespace tg {

/// The campaign-body parameter set. Which alternative is held selects the
/// generator's campaign shape; the values inside tune it.
using ArchetypeBehavior =
    std::variant<CapacityParams, CapabilityParams, WorkflowParams,
                 CoupledParams, VizParams, DataParams, ExploratoryParams,
                 GatewayUserParams>;

struct ArchetypeSpec {
  /// Registry key; also the account/project name prefix ("capacity-17").
  std::string name;
  /// Ground-truth label for every user of this archetype.
  Modality truth = Modality::kCapacityBatch;
  /// Synthetic actors to create (gateway specs count end-user labels).
  int count = 0;
  /// Campaign/session arrivals per week (scaled per user).
  double per_week = 0.0;
  // Preference trait: arguments to population pick_preferred().
  int preferred_count = 1;
  bool prefer_viz = false;
  int min_nodes = 1;
  ArchetypeBehavior behavior;
  /// Orthogonal data-access trait; disabled specs draw nothing.
  DataAccessSpec data;

  ArchetypeSpec& with_truth(Modality m) {
    truth = m;
    return *this;
  }
  ArchetypeSpec& with_count(int n) {
    count = n;
    return *this;
  }
  ArchetypeSpec& with_rate(double campaigns_per_week) {
    per_week = campaigns_per_week;
    return *this;
  }
  ArchetypeSpec& with_preference(int count_, bool viz, int min_nodes_) {
    preferred_count = count_;
    prefer_viz = viz;
    min_nodes = min_nodes_;
    return *this;
  }
  ArchetypeSpec& with_behavior(ArchetypeBehavior b) {
    behavior = std::move(b);
    return *this;
  }
  ArchetypeSpec& with_data(DataAccessSpec d) {
    d.enabled = true;
    data = d;
    return *this;
  }

  [[nodiscard]] bool is_gateway() const {
    return std::holds_alternative<GatewayUserParams>(behavior);
  }

  /// The new data-intensive archetype: capacity-batch campaign shape, an
  /// enabled DataAccessSpec, kDataCentric ground truth. Tuned so stage-in
  /// dominates the jobs' footprint (few small-core jobs over large
  /// Zipf-skewed inputs).
  [[nodiscard]] static ArchetypeSpec data_intensive(
      std::string name = "dataintensive", int count = 40,
      DataAccessSpec data = DataAccessSpec::enabled_defaults());
};

class ArchetypeRegistry {
 public:
  ArchetypeRegistry() = default;

  /// Adds a spec. A spec with an existing name replaces it *in place*
  /// (keeping its position and therefore the population RNG draw order);
  /// new names append.
  ArchetypeRegistry& add(ArchetypeSpec spec);

  [[nodiscard]] bool empty() const { return specs_.empty(); }
  [[nodiscard]] std::size_t size() const { return specs_.size(); }
  [[nodiscard]] const std::vector<ArchetypeSpec>& specs() const {
    return specs_;
  }
  [[nodiscard]] const ArchetypeSpec& at(std::size_t i) const {
    return specs_[i];
  }
  /// Index of `name`; size() when absent.
  [[nodiscard]] std::size_t index_of(std::string_view name) const;
  [[nodiscard]] const ArchetypeSpec* find(std::string_view name) const;

  /// Overrides one spec's population count (chainable test/experiment
  /// convenience). Requires the name to exist.
  ArchetypeRegistry& set_count(std::string_view name, int count);
  /// Overrides one spec's arrival rate. Requires the name to exist.
  ArchetypeRegistry& set_rate(std::string_view name, double per_week);

  /// Sum of non-gateway spec counts (the account-user population).
  [[nodiscard]] int account_users() const;

  /// Multiplies every positive count by `factor` (rounded, floor 1) — the
  /// registry side of ScenarioConfig::with_scale.
  void scale(double factor);

  /// The canonical eight builtin specs in the legacy population order
  /// (capacity, capability, workflow, coupled, viz, data, exploratory,
  /// gateway) with their default counts (300, 30, 100, 16, 40, 40, 140
  /// accounts and 240 gateway end users) and rates/behavior from `params`.
  /// Drives the population and generator byte-identically to the retired
  /// enum-and-switch path.
  [[nodiscard]] static ArchetypeRegistry builtin(
      const ArchetypeParams& params = {});

 private:
  std::vector<ArchetypeSpec> specs_;
};

}  // namespace tg
