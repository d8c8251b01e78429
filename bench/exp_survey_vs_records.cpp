// Experiment T4 — the paper's two candidate measurement mechanisms head to
// head: record-based classification (instrument everything, infer) versus
// user surveys (sample, ask, scale up). Reports per-modality user-count
// error against ground truth for both, and the survey's degradation under
// realistic response rates, misreporting and heavy-user response bias.
#include <iostream>

#include "bench/exp_common.hpp"
#include "core/survey.hpp"
#include "workload/scenario.hpp"

int main(int argc, char** argv) {
  using namespace tg;
  const exp::Options options =
      exp::Options::parse(argc, argv, "exp_survey_vs_records",
                          exp::kJobs | exp::kCsv | exp::kTrace |
                          exp::kExactReplan);
  exp::Observability obsv(options);
  exp::banner("T4", "Records-based measurement vs user surveys");

  Scenario scenario(ScenarioConfig::defaults()
                        .with_seed(42)
                        .with_horizon(180 * kDay)
                        .with_plan_cache(!options.exact_replan)
                        .with_trace(obsv.trace()));
  scenario.run();

  // Ground truth over *active* account users (the population a survey of
  // registered users would target).
  const RuleClassifier classifier;
  const auto labelled = scenario.predictions(classifier);
  const auto truth_counts = count_by_modality(labelled.truth);

  // Record-based counts: the classifier's primary attribution.
  std::array<int, kModalityCount> record_counts{};
  for (Modality m : labelled.predicted) {
    ++record_counts[static_cast<std::size_t>(m)];
  }

  // Usage weights for survey bias: each user's charged NUs.
  const FeatureExtractor extractor(scenario.platform(),
                                   scenario.config().features);
  std::vector<double> weights;
  weights.reserve(labelled.users.size());
  for (UserId u : labelled.users) {
    weights.push_back(
        extractor.extract_user(scenario.db(), u, 0,
                               scenario.engine().now() + 1)
            .total_nu);
  }

  const auto run_survey = [&](SurveyConfig cfg, std::uint64_t seed) {
    Rng rng(seed);
    return SurveyEstimator(cfg).run(labelled.truth, weights, rng);
  };

  SurveyConfig realistic;  // 20% sampled, 35% respond, 10% misreport
  SurveyConfig biased = realistic;
  biased.heavy_user_bias = 3.0;
  SurveyConfig census;
  census.sample_fraction = 1.0;
  census.response_rate = 1.0;
  census.misreport_rate = 0.05;

  const SurveyEstimate est_realistic = run_survey(realistic, 1);
  const SurveyEstimate est_biased = run_survey(biased, 2);
  const SurveyEstimate est_census = run_survey(census, 3);

  Table t({"Modality", "Truth", "Records", "Survey (realistic)",
           "Survey (biased)", "Census+5% noise"});
  exp::OptionalCsv csv(options.csv,
                       {"modality", "truth", "records", "survey_realistic",
                        "survey_biased", "census_noisy"});
  for (std::size_t m = 0; m < kModalityCount; ++m) {
    const auto mod = static_cast<Modality>(m);
    t.add_row({to_string(mod), Table::num(std::int64_t{truth_counts[m]}),
               Table::num(std::int64_t{record_counts[m]}),
               Table::num(est_realistic.users[m], 0),
               Table::num(est_biased.users[m], 0),
               Table::num(est_census.users[m], 0)});
    csv.row({short_name(mod), std::to_string(truth_counts[m]),
             std::to_string(record_counts[m]),
             Table::num(est_realistic.users[m], 1),
             Table::num(est_biased.users[m], 1),
             Table::num(est_census.users[m], 1)});
  }
  std::cout << t << "\n";

  // Error summary: records vs survey MAPE, averaged over survey waves.
  SurveyEstimate rec;
  for (std::size_t m = 0; m < kModalityCount; ++m) {
    rec.users[m] = record_counts[m];
  }
  // Each wave draws from its own Rng(100 + w); fan them out and sum the
  // index-ordered MAPEs so the mean matches the sequential loop bit for bit.
  constexpr std::size_t kWaves = 20;
  Replicator pool(options.jobs);
  const auto wave_mapes = obsv.replicate(pool, kWaves, [&](std::size_t w) {
    return survey_mape(run_survey(realistic, 100 + w), truth_counts);
  });
  double survey_err = 0.0;
  for (const double mape : wave_mapes) survey_err += mape;
  survey_err /= kWaves;
  std::cout << "Mean absolute percentage error vs truth:\n"
            << "  records-based classification: "
            << Table::pct(survey_mape(rec, truth_counts)) << "\n"
            << "  realistic survey (mean of " << kWaves
            << " waves):   " << Table::pct(survey_err) << "\n"
            << "\nThe paper's conclusion in numbers: instrumented records\n"
               "measure modalities an order of magnitude more accurately\n"
               "than surveys, and without response bias; surveys remain\n"
               "useful for the *why*, which records cannot capture.\n";
  if (obsv.metrics_enabled()) scenario.publish_metrics(obsv.registry());
  obsv.finish();
  return 0;
}
