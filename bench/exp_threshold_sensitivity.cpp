// Experiment F4 — ablation: how sensitive is the modality measurement to
// the classifier's rule thresholds? One population is simulated once; each
// threshold is then swept independently while the others stay at defaults.
// Stable plateaus around the defaults mean the taxonomy is measurable
// robustly; cliffs mark where a mechanism stops separating modalities.
#include <functional>
#include <iostream>

#include "bench/exp_common.hpp"
#include "core/scoring.hpp"
#include "workload/scenario.hpp"

int main(int argc, char** argv) {
  using namespace tg;
  const exp::Options options =
      exp::Options::parse(argc, argv, "exp_threshold_sensitivity",
                          exp::kJobs | exp::kCsv | exp::kTrace |
                          exp::kExactReplan);
  exp::Observability obsv(options);
  exp::banner("F4", "Classifier threshold sensitivity (macro-F1)");

  Scenario scenario(ScenarioConfig::defaults()
                        .with_seed(42)
                        .with_horizon(180 * kDay)
                        .with_plan_cache(!options.exact_replan)
                        .with_trace(obsv.trace()));
  scenario.run();

  const auto score_with = [&](const ClassifierThresholds& t) {
    const RuleClassifier classifier(t);
    const auto labelled = scenario.predictions(classifier);
    const auto cm = score_primary(labelled.truth, labelled.predicted);
    return std::make_pair(cm.accuracy(), cm.macro_f1());
  };

  struct Sweep {
    const char* name;
    std::vector<double> values;
    std::function<void(ClassifierThresholds&, double)> apply;
  };
  const std::vector<Sweep> sweeps{
      {"gateway_fraction",
       {0.1, 0.3, 0.5, 0.7, 0.9},
       [](ClassifierThresholds& t, double v) { t.gateway_fraction = v; }},
      {"workflow_fraction",
       {0.05, 0.15, 0.25, 0.5, 0.75},
       [](ClassifierThresholds& t, double v) { t.workflow_fraction = v; }},
      {"capability_min_cores",
       {256, 1024, 2048, 4096, 8192},
       [](ClassifierThresholds& t, double v) {
         t.capability_min_cores = static_cast<int>(v);
       }},
      {"exploratory_max_nu",
       {50, 200, 500, 2000, 10000},
       [](ClassifierThresholds& t, double v) { t.exploratory_max_nu = v; }},
      {"viz_fraction",
       {0.05, 0.15, 0.25, 0.5, 0.75},
       [](ClassifierThresholds& t, double v) { t.viz_fraction = v; }},
      {"data_min_bytes",
       {1e10, 1e11, 1e12, 1e13, 1e14},
       [](ClassifierThresholds& t, double v) { t.data_min_bytes = v; }},
  };

  // Flatten (defaults + every sweep point) into one index space and fan
  // the independent re-classifications out over the pool; rows are printed
  // from the index-ordered results, so output is byte-identical to the
  // sequential loop.
  struct Point {
    const Sweep* sweep = nullptr;  // null = defaults row
    double value = 0.0;
  };
  std::vector<Point> points{{nullptr, 0.0}};
  for (const Sweep& sweep : sweeps) {
    for (double v : sweep.values) points.push_back({&sweep, v});
  }
  Replicator pool(options.jobs);
  const auto scores =
      obsv.replicate(pool, points.size(), [&](std::size_t i) {
        ClassifierThresholds thresholds;
        if (points[i].sweep != nullptr) {
          points[i].sweep->apply(thresholds, points[i].value);
        }
        return score_with(thresholds);
      });

  Table t({"Threshold", "Value", "Accuracy", "Macro-F1"});
  exp::OptionalCsv csv(options.csv,
                       {"threshold", "value", "accuracy", "macro_f1"});
  const auto [base_acc, base_f1] = scores.front();
  t.add_row({"(defaults)", "-", Table::pct(base_acc),
             Table::num(base_f1, 3)});
  t.add_rule();
  std::size_t next = 1;
  for (const Sweep& sweep : sweeps) {
    for (double v : sweep.values) {
      const auto [acc, f1] = scores[next++];
      t.add_row({sweep.name, Table::num(v, v < 1.0 ? 2 : 0),
                 Table::pct(acc), Table::num(f1, 3)});
      csv.row({sweep.name, Table::num(v, 4), Table::num(acc, 4),
               Table::num(f1, 4)});
    }
    t.add_rule();
  }
  std::cout << t;
  if (obsv.metrics_enabled()) scenario.publish_metrics(obsv.registry());
  obsv.finish();
  return 0;
}
