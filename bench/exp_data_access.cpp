// Experiment D1 — the data-grid sweep: how site-cache capacity and eviction
// policy shape stage-in behaviour, and whether the accounting stream alone
// recovers the data-intensive modality. A data-intensive archetype (drawn
// per-job dataset references over Zipf-skewed replicated pools, after Begy
// et al.) joins the standard population; each sweep point simulates the
// same quarter under one cache configuration and reports cache hit rates,
// WAN stage-in volume and latency, and the classifier's data-centric
// accuracy against ground truth. Sweep points run in parallel; output is
// byte-identical at every --jobs level.
#include <algorithm>
#include <cstddef>
#include <iostream>
#include <string>
#include <vector>

#include "bench/exp_common.hpp"
#include "core/classifier.hpp"
#include "core/features.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace tg;

struct SweepPoint {
  const char* name;
  double cache_tb;  ///< per-site cache capacity
  CachePolicy policy;
};

// Capacities bracket the per-site slice of the data archetype's working
// set (256 datasets, bounded-Pareto sizes tailing to 2 TB): half a TB
// thrashes and rejects the tail, 50 TB holds nearly everything, the
// middle point is where the eviction policies separate.
constexpr SweepPoint kSweep[] = {
    {"tiny-lru", 0.5, CachePolicy::kLru},
    {"tiny-sa", 0.5, CachePolicy::kSizeAwareLru},
    {"small-lru", 5.0, CachePolicy::kLru},
    {"small-sa", 5.0, CachePolicy::kSizeAwareLru},
    {"large-lru", 50.0, CachePolicy::kLru},
    {"large-sa", 50.0, CachePolicy::kSizeAwareLru},
};

struct RunResult {
  CacheStats cache;
  DataGrid::Stats grid;
  double accuracy = 0.0;  ///< data-centric membership vs truth, all users
  double recall = 0.0;    ///< flagged fraction of true data-centric users
  std::size_t users = 0;
};

RunResult run_one(const SweepPoint& point, bool plan_cache) {
  Scenario scenario(
      ScenarioConfig::defaults()
          .with_seed(777)
          .with_horizon(kQuarter)
          .with_plan_cache(plan_cache)
          .with_archetype(ArchetypeSpec::data_intensive())
          .with_data_grid(DataGridConfig::enabled_defaults()
                              .with_cache_bytes(point.cache_tb * 1e12)
                              .with_policy(point.policy)));
  scenario.run();

  RunResult out;
  out.cache = scenario.data_grid()->total_cache_stats();
  out.grid = scenario.data_grid()->stats();

  // Data-centric membership vs ground truth over every active account
  // user: a user is "flagged" when kDataCentric is in their modality set
  // (not necessarily primary — heavy readers still burn NU). Recall is
  // measured over the staged archetype specifically: the builtin "data"
  // archetype is transfer-based (no stage-in) and is recovered by the
  // older bytes-transferred rule, not the one under test here.
  const FeatureExtractor extractor(scenario.platform(),
                                   scenario.config().features);
  const auto features = extractor.extract(scenario.db(), 0,
                                          scenario.engine().now() + 1);
  const RuleClassifier classifier;
  const auto sets = classifier.classify(features);
  std::vector<bool> flagged_of(
      static_cast<std::size_t>(scenario.db().user_id_limit()), false);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < features.size(); ++i) {
    const bool truth =
        scenario.truth().of(features[i].user) == Modality::kDataCentric;
    const bool flagged = sets[i].has(Modality::kDataCentric);
    if (truth == flagged) ++correct;
    if (flagged) {
      flagged_of[static_cast<std::size_t>(features[i].user.value())] = true;
    }
  }
  const std::size_t staged_index =
      scenario.population().registry.index_of("dataintensive");
  std::size_t staged = 0, staged_hit = 0;
  for (const SyntheticUser& u : scenario.population().users) {
    if (u.archetype != staged_index) continue;
    ++staged;
    const auto v = static_cast<std::size_t>(u.id.value());
    if (v < flagged_of.size() && flagged_of[v]) ++staged_hit;
  }
  out.users = features.size();
  out.accuracy = features.empty()
                     ? 0.0
                     : static_cast<double>(correct) / features.size();
  out.recall =
      staged == 0 ? 0.0 : static_cast<double>(staged_hit) / staged;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const exp::Options options =
      exp::Options::parse(argc, argv, "exp_data_access",
                          exp::kJobs | exp::kCsv | exp::kTrace |
                          exp::kExactReplan);
  exp::Observability obsv(options);
  exp::banner("D1", "Site-cache sweep: hit rates, stage-in, data modality");

  constexpr std::size_t kPoints = std::size(kSweep);
  Replicator pool(options.jobs);
  const bool plan_cache = !options.exact_replan;
  const auto results = obsv.replicate(
      pool, kPoints,
      [plan_cache](std::size_t i) { return run_one(kSweep[i], plan_cache); });

  Table table({"config", "cache TB", "policy", "hit rate", "byte hits",
               "evictions", "staged TB", "local %", "stage-in h",
               "accuracy", "recall"});
  exp::OptionalCsv csv(options.csv,
                       {"config", "cache_tb", "policy", "hit_rate",
                        "byte_hit_rate", "evictions", "staged_tb",
                        "local_fraction", "stage_in_hours", "accuracy",
                        "recall"});
  for (std::size_t i = 0; i < kPoints; ++i) {
    const RunResult& r = results[i];
    const double staged_tb = r.grid.bytes_transferred / 1e12;
    const double local_frac =
        r.grid.stage_ins > 0
            ? static_cast<double>(r.grid.local_stage_ins) /
                  static_cast<double>(r.grid.stage_ins)
            : 0.0;
    const double stage_in_hours =
        static_cast<double>(r.grid.stage_in_total) /
        static_cast<double>(kHour);
    std::vector<std::string> row{
        kSweep[i].name,
        Table::num(kSweep[i].cache_tb, 1),
        to_string(kSweep[i].policy),
        Table::pct(r.cache.hit_rate()),
        Table::pct(r.cache.byte_hit_rate()),
        std::to_string(r.cache.evictions),
        Table::num(staged_tb, 2),
        Table::pct(local_frac),
        Table::num(stage_in_hours, 1),
        Table::pct(r.accuracy),
        Table::pct(r.recall)};
    csv.row(row);
    table.add_row(std::move(row));
  }
  std::cout << table << "\n";

  // The headline acceptance number: the worst sweep point must still
  // recover the data-intensive population from accounting records alone.
  double min_accuracy = 1.0;
  for (const RunResult& r : results) {
    min_accuracy = std::min(min_accuracy, r.accuracy);
  }
  std::cout << "Data-centric accuracy (worst sweep point): "
            << Table::pct(min_accuracy) << " over " << results[0].users
            << " users\n";
  obsv.finish();
  return 0;
}
