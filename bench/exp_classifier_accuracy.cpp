// Experiment F3 — how well do the paper's proposed measurement mechanisms
// recover true modalities? Ten independent half-year populations are
// simulated (in parallel), classified from records only, and scored against
// the generator's ground truth: aggregate confusion matrix, per-modality
// precision/recall/F1, and accuracy spread across seeds.
#include <iostream>

#include "bench/exp_common.hpp"
#include "core/scoring.hpp"
#include "util/stats.hpp"
#include "workload/scenario.hpp"

namespace {

struct SeedResult {
  std::vector<tg::Modality> truth;
  std::vector<tg::Modality> predicted;
};

SeedResult run_seed(std::uint64_t seed, bool plan_cache) {
  tg::ScenarioConfig config;
  config.seed = seed;
  config.sched.plan_cache = plan_cache;
  config.horizon = 180 * tg::kDay;
  tg::Scenario scenario(std::move(config));
  scenario.run();
  const tg::RuleClassifier classifier;
  const auto labelled = scenario.predictions(classifier);
  return SeedResult{labelled.truth, labelled.predicted};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tg;
  const exp::Options options =
      exp::Options::parse(argc, argv, "exp_classifier_accuracy",
                          exp::kJobs | exp::kCsv | exp::kTrace |
                          exp::kExactReplan);
  exp::Observability obsv(options);
  exp::banner("F3", "Classifier quality vs ground truth (10 seeds)");

  constexpr std::size_t kSeeds = 10;
  Replicator pool(options.jobs);
  const auto results = obsv.replicate(
      pool, kSeeds,
      [plan_cache = !options.exact_replan](std::size_t i) {
        return run_seed(1000 + i, plan_cache);
      });

  ConfusionMatrix aggregate;
  RunningStats accuracy;
  RunningStats macro_f1;
  for (const SeedResult& r : results) {
    const ConfusionMatrix cm = score_primary(r.truth, r.predicted);
    accuracy.add(cm.accuracy());
    macro_f1.add(cm.macro_f1());
    for (std::size_t i = 0; i < r.truth.size(); ++i) {
      aggregate.add(r.truth[i], r.predicted[i]);
    }
  }

  std::cout << "Aggregate confusion matrix (" << aggregate.total()
            << " user-classifications):\n"
            << aggregate.to_table() << "\n"
            << aggregate.per_class_table() << "\n"
            << "Accuracy:  mean " << Table::pct(accuracy.mean()) << "  min "
            << Table::pct(accuracy.min()) << "  max "
            << Table::pct(accuracy.max()) << "\n"
            << "Macro-F1:  mean " << Table::num(macro_f1.mean(), 3)
            << "  stddev " << Table::num(macro_f1.stddev(), 4) << "\n";

  exp::OptionalCsv csv(options.csv,
                       {"modality", "precision", "recall", "f1"});
  for (std::size_t m = 0; m < kModalityCount; ++m) {
    const auto mod = static_cast<Modality>(m);
    csv.row({short_name(mod), Table::num(aggregate.precision(mod), 4),
             Table::num(aggregate.recall(mod), 4),
             Table::num(aggregate.f1(mod), 4)});
  }
  obsv.finish();
  return 0;
}
