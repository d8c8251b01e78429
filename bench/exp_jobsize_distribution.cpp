// Experiment F2 — job-width distribution (in cores) by modality: the CDF
// figure showing gateway/exploratory use concentrated at tiny widths,
// capacity batch log-uniform across the middle, and capability runs in the
// thousands of cores.
#include <array>
#include <iostream>
#include <map>

#include "bench/exp_common.hpp"
#include "util/histogram.hpp"
#include "workload/scenario.hpp"

int main(int argc, char** argv) {
  using namespace tg;
  const exp::Options options =
      exp::Options::parse(argc, argv, "exp_jobsize_distribution",
                          exp::kCsv | exp::kTrace | exp::kExactReplan);
  exp::Observability obsv(options);
  exp::banner("F2", "Job width (cores) CDF by modality, 1 year");

  Scenario scenario(ScenarioConfig::defaults()
                        .with_seed(42)
                        .with_horizon(kYear)
                        .with_plan_cache(!options.exact_replan)
                        .with_trace(obsv.trace()));
  scenario.run();

  // Classify users from records, then attribute each job to its user's
  // primary modality — exactly what an analyst would do with TGCDB data.
  const RuleClassifier classifier;
  const FeatureExtractor extractor(scenario.platform(),
                                   scenario.config().features);
  const auto features =
      extractor.extract(scenario.db(), 0, scenario.engine().now() + 1);
  const auto sets = classifier.classify(features);
  std::map<UserId, Modality> primary;
  for (std::size_t i = 0; i < features.size(); ++i) {
    if (!sets[i].members.none()) primary[features[i].user] = sets[i].primary;
  }

  std::array<Log2Histogram, kModalityCount> widths{};
  for (const JobRecord& r : scenario.db().jobs()) {
    const auto it = primary.find(r.user);
    if (it == primary.end()) continue;
    widths[static_cast<std::size_t>(it->second)].add(r.width_cores());
  }

  std::size_t max_bin = 0;
  for (const auto& h : widths) max_bin = std::max(max_bin, h.used_bins());

  std::vector<std::string> header{"cores <="};
  for (std::size_t m = 0; m < kModalityCount; ++m) {
    header.emplace_back(short_name(static_cast<Modality>(m)));
  }
  Table t(header);
  exp::OptionalCsv csv(options.csv, header);
  std::array<double, kModalityCount> cum{};
  for (std::size_t b = 0; b < max_bin; ++b) {
    std::vector<std::string> row{
        std::to_string(static_cast<long>(1) << (b + 1))};
    for (std::size_t m = 0; m < kModalityCount; ++m) {
      cum[m] += widths[m].count(b);
      const double total = widths[m].total();
      row.push_back(total > 0 ? Table::pct(cum[m] / total, 0) : "-");
    }
    csv.row(row);
    t.add_row(std::move(row));
  }
  std::cout << t << "\nJobs per modality: ";
  for (std::size_t m = 0; m < kModalityCount; ++m) {
    std::cout << short_name(static_cast<Modality>(m)) << "="
              << static_cast<long>(widths[m].total()) << " ";
  }
  std::cout << "\n";
  if (obsv.metrics_enabled()) scenario.publish_metrics(obsv.registry());
  obsv.finish();
  return 0;
}
