// Experiment F11 — modality dynamics: how users move between modalities
// quarter over quarter (retention/churn matrix) and per-modality growth
// rates. This is the "make changes to better support them" payoff: the
// measurement programme must detect modality adoption, not just levels.
#include <iostream>

#include "bench/exp_common.hpp"
#include "core/trend.hpp"
#include "workload/scenario.hpp"

int main(int argc, char** argv) {
  using namespace tg;
  const exp::Options options =
      exp::Options::parse(argc, argv, "exp_modality_churn");
  exp::Observability obsv(options);
  exp::banner("F11", "Quarter-over-quarter modality churn & growth (2 years)");

  Scenario scenario(ScenarioConfig::defaults()
                        .with_seed(42)
                        .with_horizon(2 * kYear)
                        .with_gateway_adoption_ramp(0.8)
                        .with_plan_cache(!options.exact_replan)
                        .with_trace(obsv.trace()));
  scenario.run();

  // The eight quarterly windows are independent classifications of the same
  // read-only database; fan the windows out, then reduce the index-ordered
  // series into churn and trend statistics.
  const RuleClassifier classifier;
  constexpr int kQuarters = 8;
  Replicator pool(options.jobs);
  const auto series = obsv.replicate(pool, kQuarters, [&](std::size_t q) {
    return classify_window(scenario.platform(), scenario.db(), classifier,
                           static_cast<SimTime>(q) * kQuarter,
                           static_cast<SimTime>(q + 1) * kQuarter,
                           scenario.config().features);
  });
  const ModalityChurn churn = churn_from(series);
  std::cout << "Transition matrix, summed over " << churn.quarter_pairs
            << " quarter pairs (rows: modality in q; columns: in q+1):\n"
            << churn.to_table() << "\n";

  Table retention({"Modality", "Retention", "Departed/quarter",
                   "Arrived/quarter"});
  exp::OptionalCsv csv(options.csv,
                       {"modality", "retention", "departed_per_q",
                        "arrived_per_q", "quarterly_growth"});
  const ModalityTrend trend = trend_from(series);
  for (std::size_t m = 0; m < kModalityCount; ++m) {
    const auto mod = static_cast<Modality>(m);
    const double dep = churn.quarter_pairs > 0
                           ? static_cast<double>(churn.departed[m]) /
                                 churn.quarter_pairs
                           : 0.0;
    const double arr = churn.quarter_pairs > 0
                           ? static_cast<double>(churn.arrived[m]) /
                                 churn.quarter_pairs
                           : 0.0;
    retention.add_row({to_string(mod), Table::pct(churn.retention(mod)),
                       Table::num(dep, 1), Table::num(arr, 1)});
    csv.row({short_name(mod), Table::num(churn.retention(mod), 4),
             Table::num(dep, 2), Table::num(arr, 2),
             Table::num(trend.quarterly_growth[m], 4)});
  }
  std::cout << retention << "\nPer-modality growth (compound per quarter):\n";
  Table growth({"Modality", "Q1 users", "Q8 users", "Growth/quarter"});
  for (std::size_t m = 0; m < kModalityCount; ++m) {
    const auto mod = static_cast<Modality>(m);
    growth.add_row({to_string(mod),
                    Table::num(std::int64_t{trend.first_quarter_users[m]}),
                    Table::num(std::int64_t{trend.last_quarter_users[m]}),
                    Table::pct(trend.quarterly_growth[m])});
  }
  std::cout << growth
            << "\nExpected shape: established modalities retain their users\n"
               "quarter to quarter with near-zero growth; gateway use (the\n"
               "community-account rows stay constant — growth shows up in\n"
               "end-user attribute counts, figure F1) and exploratory use\n"
               "churn the most.\n";
  if (obsv.metrics_enabled()) scenario.publish_metrics(obsv.registry());
  obsv.finish();
  return 0;
}
