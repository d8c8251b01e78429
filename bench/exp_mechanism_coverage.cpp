// Experiment T3 — measurement-mechanism coverage.
//
// Two parts:
//  (a) a static table of which record stream identifies each modality (the
//      paper's proposal), with the measured fraction of that modality's
//      ground-truth users the mechanism actually recovered;
//  (b) the gateway attribute-coverage sweep: the paper's key measurement
//      gap is that gateways only sometimes attach end-user attributes; we
//      sweep the coverage rate and report the end-user undercount.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench/exp_common.hpp"
#include "core/scoring.hpp"
#include "util/stats.hpp"
#include "workload/scenario.hpp"

namespace {

tg::ScenarioConfig config_with_coverage(double coverage, bool plan_cache) {
  tg::ScenarioConfig c;
  c.seed = 42;
  c.sched.plan_cache = plan_cache;
  c.horizon = 180 * tg::kDay;
  c.gateway_attribute_coverage = coverage;
  c.gateway_adoption_ramp = 0.0;  // everyone active; isolates the gap
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tg;
  const exp::Options options =
      exp::Options::parse(argc, argv, "exp_mechanism_coverage",
                          exp::kJobs | exp::kCsv | exp::kTrace |
                          exp::kExactReplan);
  exp::Observability obsv(options);
  exp::banner("T3", "Measurement-mechanism coverage per modality");
  const bool plan_cache = !options.exact_replan;

  // --- (a) per-modality recall of the proposed mechanisms ---
  {
    Scenario scenario(config_with_coverage(0.9, plan_cache));
    scenario.run();
    const RuleClassifier classifier;
    const auto labelled = scenario.predictions(classifier);
    const auto cm = score_primary(labelled.truth, labelled.predicted);
    Table t({"Modality", "Mechanism (record stream)", "Recall", "Precision"});
    for (const ModalityInfo& info : taxonomy()) {
      t.add_row({info.name, info.mechanism,
                 Table::num(cm.recall(info.modality), 3),
                 Table::num(cm.precision(info.modality), 3)});
    }
    std::cout << t << "\n";
  }

  // --- (b) gateway attribute-coverage sweep ---
  // Three views of the gap: the attributable *job/charge* fraction tracks
  // coverage linearly; the distinct end-user count is robust (any one
  // attributed job identifies a user); the identification *delay* — how
  // long a new portal user stays invisible — grows as coverage falls.
  // Each coverage point is an independent replication (own Scenario, own
  // Engine); fan them out and print the index-ordered results.
  std::cout << "Gateway attribute coverage sweep:\n";
  Table sweep({"Coverage", "End users (true)", "Measured", "Jobs attributed",
               "Median days to identify"});
  exp::OptionalCsv csv(options.csv,
                       {"coverage", "true_end_users", "measured_end_users",
                        "attributed_job_fraction", "median_identify_days"});
  const std::vector<double> coverages{0.25, 0.5, 0.75, 0.9, 1.0};
  struct CoverageRow {
    int truth = 0;
    int measured = 0;
    double job_frac = 0.0;
    double median_delay = 0.0;
  };
  Replicator pool(options.jobs);
  const auto rows =
      obsv.replicate(pool, coverages.size(), [&](std::size_t i) {
        Scenario scenario(config_with_coverage(coverages[i], plan_cache));
        scenario.run();
        const RuleClassifier classifier;
        const ModalityReport report = scenario.report(classifier);
        CoverageRow row;
        row.truth =
            static_cast<int>(scenario.population().gateway_end_users.size());
        row.measured = report.gateway_end_users();

        long gateway_jobs = 0;
        long attributed = 0;
        // Identification delay: first *attributed* record of an end user
        // minus their activation time (ground truth from the population).
        // Dense by interned end-user id; -1 = never attributed.
        std::vector<SimTime> first_seen(
            scenario.population().end_user_pool.size(), SimTime{-1});
        std::vector<double> delays_days;
        for (const JobRecord& r : scenario.db().jobs()) {
          if (!r.gateway.valid()) continue;
          ++gateway_jobs;
          if (!r.gateway_end_user.valid()) continue;
          ++attributed;
          SimTime& seen =
              first_seen[static_cast<std::size_t>(r.gateway_end_user.value())];
          seen = seen < 0 ? r.end_time : std::min(seen, r.end_time);
        }
        for (const auto& eu : scenario.population().gateway_end_users) {
          const SimTime seen =
              first_seen[static_cast<std::size_t>(eu.id.value())];
          if (seen < 0) continue;
          delays_days.push_back(to_days(seen - eu.active_from));
        }
        row.job_frac = gateway_jobs > 0
                           ? static_cast<double>(attributed) / gateway_jobs
                           : 0.0;
        row.median_delay = percentile(delays_days, 0.5);
        return row;
      });
  for (std::size_t i = 0; i < coverages.size(); ++i) {
    const CoverageRow& row = rows[i];
    sweep.add_row({Table::pct(coverages[i], 0),
                   Table::num(std::int64_t{row.truth}),
                   Table::num(std::int64_t{row.measured}),
                   Table::pct(row.job_frac),
                   Table::num(row.median_delay, 1)});
    csv.row({Table::num(coverages[i], 2), std::to_string(row.truth),
             std::to_string(row.measured), Table::num(row.job_frac, 4),
             Table::num(row.median_delay, 3)});
  }
  std::cout << sweep
            << "\nUser counts degrade slowly (one attributed job suffices to\n"
               "identify a user) but attributable charge falls linearly with\n"
               "coverage and new users stay invisible longer.\n";
  obsv.finish();
  return 0;
}
