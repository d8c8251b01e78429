// Experiment T2 — the paper's headline artifact: users, jobs and normalized
// units per usage modality over one simulated allocation year, measured
// purely from central accounting records, plus the gateway end-user count
// from attribute records.
#include <iostream>

#include "bench/exp_common.hpp"
#include "core/scoring.hpp"
#include "workload/scenario.hpp"

int main(int argc, char** argv) {
  using namespace tg;
  const exp::Options options =
      exp::Options::parse(argc, argv, "exp_modality_usage",
                          exp::kCsv | exp::kTrace | exp::kCheckInvariants |
                          exp::kExactReplan | exp::kAuditEvery);
  exp::Observability obsv(options);
  exp::banner("T2", "Usage modalities on the simulated TeraGrid, 1 year");

  Scenario scenario(ScenarioConfig::defaults()
                        .with_seed(42)
                        .with_horizon(kYear)
                        .with_plan_cache(!options.exact_replan)
                        .with_audit_every(options.audit_period())
                        .with_trace(obsv.trace()));
  {
    const auto phase = obsv.profiler().measure("simulate");
    scenario.run();
  }

  const RuleClassifier classifier;
  const ModalityReport report = [&] {
    const auto phase = obsv.profiler().measure("analyze");
    return scenario.report(classifier);
  }();

  std::cout << "Platform: 11 sites, "
            << scenario.platform().compute().size() << " compute systems, "
            << scenario.platform().total_cores() << " cores\n"
            << "Population: " << scenario.community().user_count()
            << " accounts (+" << scenario.population().gateway_end_users.size()
            << " gateway end users)\n"
            << "Records: " << scenario.db().jobs().size() << " jobs, "
            << scenario.db().transfers().size() << " transfers, "
            << scenario.db().sessions().size() << " sessions\n\n"
            << report.to_table() << "\n"
            << "Gateway end users measured from attributes: "
            << report.gateway_end_users() << " (true population "
            << scenario.population().gateway_end_users.size() << ", coverage "
            << Table::pct(scenario.config().gateway_attribute_coverage)
            << ")\n";

  exp::OptionalCsv csv(options.csv,
                       {"modality", "users", "primary_users", "jobs", "nu",
                        "user_share", "nu_share"});
  for (const auto& row : report.rows()) {
    csv.row({short_name(row.modality), std::to_string(row.users),
             std::to_string(row.primary_users), std::to_string(row.jobs),
             Table::num(row.nu, 1), Table::num(row.user_share, 4),
             Table::num(row.nu_share, 4)});
  }
  if (obsv.metrics_enabled()) scenario.publish_metrics(obsv.registry());
  obsv.finish();
  if (options.check_invariants) {
    exp::print_invariants(scenario.audit_now(AuditPhase::kFinal));
  }
  return 0;
}
