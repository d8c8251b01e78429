// Experiment F10 — ablation of the burst-clustering heuristic.
//
// Workflow/ensemble usage is only partially visible through middleware
// tags: users who script their own sweeps leave no tag, and the classifier
// must recover them from same-geometry submission bursts. This ablation
// sweeps (a) the fraction of ensemble campaigns that go through the tagged
// workflow engine and (b) the burst-size threshold, reporting workflow
// recall with and without burst clustering.
#include <iostream>

#include "bench/exp_common.hpp"
#include "core/scoring.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace tg;

double workflow_recall(const Scenario& scenario,
                       const RuleClassifier& classifier) {
  const auto labelled = scenario.predictions(classifier);
  const auto cm = score_primary(labelled.truth, labelled.predicted);
  return cm.recall(Modality::kWorkflowEnsemble);
}

Scenario make_scenario(double engine_prob, bool plan_cache) {
  ScenarioConfig config;
  config.seed = 42;
  config.sched.plan_cache = plan_cache;
  config.horizon = 120 * kDay;
  ArchetypeParams params;
  params.workflow.engine_prob = engine_prob;
  config.registry = ArchetypeRegistry::builtin(params);
  return Scenario(std::move(config));
}

}  // namespace

int main(int argc, char** argv) {
  const exp::Options options =
      exp::Options::parse(argc, argv, "exp_burst_detection",
                          exp::kCsv | exp::kExactReplan);
  exp::Observability obsv(options);
  exp::banner("F10", "Burst-clustering ablation (untagged ensembles)");
  const bool plan_cache = !options.exact_replan;

  exp::OptionalCsv csv(options.csv, {"sweep", "x", "recall"});

  std::cout << "(a) Workflow-modality recall vs fraction of campaigns using "
               "the tagged engine:\n";
  Table a({"Tagged fraction", "Recall (tags+bursts)", "Recall (tags only)"});
  for (const double engine_prob : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    Scenario scenario = make_scenario(engine_prob, plan_cache);
    scenario.run();
    // Tags + bursts: the default classifier.
    const double with_bursts =
        workflow_recall(scenario, RuleClassifier{});
    // Tags only: set the burst requirement impossibly high.
    FeatureConfig no_burst_features;
    no_burst_features.burst_min_jobs = 1'000'000;
    // Rebuild predictions with burst detection effectively disabled.
    const FeatureExtractor extractor(scenario.platform(), no_burst_features);
    const auto features =
        extractor.extract(scenario.db(), 0, scenario.engine().now() + 1);
    const RuleClassifier classifier;
    const auto sets = classifier.classify(features);
    ConfusionMatrix cm;
    for (std::size_t i = 0; i < features.size(); ++i) {
      if (sets[i].members.none()) continue;
      cm.add(scenario.truth().of(features[i].user), sets[i].primary);
    }
    const double tags_only = cm.recall(Modality::kWorkflowEnsemble);
    a.add_row({Table::pct(engine_prob, 0), Table::num(with_bursts, 3),
               Table::num(tags_only, 3)});
    csv.row({"tagged_fraction", Table::num(engine_prob, 2),
             Table::num(with_bursts, 4)});
    csv.row({"tagged_fraction_tagsonly", Table::num(engine_prob, 2),
             Table::num(tags_only, 4)});
  }
  std::cout << a;

  std::cout << "\n(b) Recall vs burst-size threshold (half of campaigns "
               "tagged):\n";
  Table b({"burst_min_jobs", "Workflow recall", "Overall accuracy"});
  Scenario scenario = make_scenario(0.5, !options.exact_replan);
  scenario.run();
  for (const int min_jobs : {4, 8, 16, 32, 64}) {
    FeatureConfig fc;
    fc.burst_min_jobs = min_jobs;
    const FeatureExtractor extractor(scenario.platform(), fc);
    const auto features =
        extractor.extract(scenario.db(), 0, scenario.engine().now() + 1);
    const RuleClassifier classifier;
    const auto sets = classifier.classify(features);
    ConfusionMatrix cm;
    for (std::size_t i = 0; i < features.size(); ++i) {
      if (sets[i].members.none()) continue;
      cm.add(scenario.truth().of(features[i].user), sets[i].primary);
    }
    b.add_row({Table::num(std::int64_t{min_jobs}),
               Table::num(cm.recall(Modality::kWorkflowEnsemble), 3),
               Table::pct(cm.accuracy())});
    csv.row({"burst_min_jobs", std::to_string(min_jobs),
             Table::num(cm.recall(Modality::kWorkflowEnsemble), 4)});
  }
  std::cout << b
            << "\nTags alone miss the scripted half of ensemble use; burst\n"
               "clustering recovers it, degrading only when the threshold\n"
               "exceeds typical sweep widths.\n";
  obsv.finish();
  return 0;
}
