// Experiment F12 — how robust is the modality table to operational noise?
// The same population is simulated under increasing fault pressure (resource
// MTBF sweep plus per-job hazards and gateway brownouts); each level reports
// the NU-share drift of the modality table against the fault-free level, the
// classifier accuracy against ground truth, the injected-fault statistics,
// and the invariant-audit verdict. Levels x seeds run in parallel; output is
// byte-identical at every --jobs level.
#include <array>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench/exp_common.hpp"
#include "core/scoring.hpp"
#include "fault/invariants.hpp"
#include "mc/random_check.hpp"
#include "util/stats.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace tg;

struct Level {
  const char* name;
  double mtbf_hours;  ///< 0 = fault-free control
};

constexpr Level kLevels[] = {
    {"none", 0.0},
    {"rare", 2000.0},
    {"monthly", 720.0},
    {"weekly", 168.0},
};
constexpr std::size_t kSeedsPerLevel = 3;

struct RunResult {
  std::array<double, kModalityCount> nu_share{};
  double accuracy = 0.0;
  std::uint64_t requeued = 0;
  std::uint64_t outage_killed = 0;
  FaultModel::Stats faults;
  bool invariants_ok = false;
  std::size_t invariant_checks = 0;
  std::string first_violation;
};

RunResult run_one(double mtbf_hours, std::uint64_t seed, bool plan_cache,
                  Duration audit_every) {
  ScenarioConfig config;
  config.seed = seed;
  config.horizon = 120 * kDay;
  config.sched.plan_cache = plan_cache;
  config.audit_every = audit_every;
  if (mtbf_hours > 0.0) {
    config.faults.outage.mtbf_hours = mtbf_hours;
    config.faults.job_failure_rate_per_hour = 0.0005;
    config.faults.gateway_brownouts_per_week = 0.25;
  }
  Scenario scenario(std::move(config));
  scenario.run();

  const RuleClassifier classifier;
  const ModalityReport report = scenario.report(classifier);
  RunResult out;
  for (std::size_t m = 0; m < kModalityCount; ++m) {
    out.nu_share[m] = report.rows()[m].nu_share;
  }
  const auto labelled = scenario.predictions(classifier);
  out.accuracy = score_primary(labelled.truth, labelled.predicted).accuracy();
  out.requeued = scenario.db().disposition_count(Disposition::kRequeued);
  out.outage_killed =
      scenario.db().disposition_count(Disposition::kKilledByOutage);
  out.faults = scenario.fault_stats();
  const InvariantReport audit = scenario.audit_now(AuditPhase::kFinal);
  out.invariants_ok = audit.ok();
  out.invariant_checks = audit.checks;
  if (!audit.ok()) out.first_violation = audit.violations.front();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Every run is audited and a violation exits non-zero, so
  // --check-invariants is accepted and always in effect.
  const exp::Options options =
      exp::Options::parse(argc, argv, "exp_fault_sensitivity",
                          exp::kJobs | exp::kCsv | exp::kTrace |
                          exp::kCheckInvariants | exp::kExactReplan |
                          exp::kAuditEvery | exp::kMcRandom);

  if (options.mc_random > 0) {
    // Random tie-break replays instead of the experiment: a compact faulty
    // configuration (weekly outages, brownouts, scaled-down population),
    // big enough to exercise outage/requeue races, small enough that the
    // replays fit a CI smoke budget.
    ScenarioConfig config;
    config.seed = 4242;
    config.horizon = 30 * kDay;
    config.sched.plan_cache = !options.exact_replan;
    config.faults.outage.mtbf_hours = 168.0;
    config.faults.gateway_brownouts_per_week = 0.25;
    config.with_scale(0.5);
    const bool ok = mc::run_random_tiebreak_check(
        config, options.mc_random, options.mc_seed, std::cout);
    std::cout << "[mc-random] " << (ok ? "PASS" : "FAIL") << "\n";
    return ok ? 0 : 1;
  }

  exp::Observability obsv(options);
  exp::banner("F12", "Modality-table drift vs infrastructure MTBF");

  // Replications are self-contained (own Engine, own trace-free Scenario):
  // the coordinating thread owns the only trace buffer, so the export stays
  // byte-identical at every --jobs level.
  constexpr std::size_t kLevelCount = std::size(kLevels);
  Replicator pool(options.jobs);
  const bool plan_cache = !options.exact_replan;
  const auto results = obsv.replicate(
      pool, kLevelCount * kSeedsPerLevel,
      [plan_cache, audit_every = options.audit_period()](std::size_t i) {
        return run_one(kLevels[i / kSeedsPerLevel].mtbf_hours,
                       4200 + i % kSeedsPerLevel, plan_cache, audit_every);
      });

  // Per-level means; level 0 (fault-free) is the drift baseline.
  std::array<std::array<double, kModalityCount>, kLevelCount> mean_share{};
  for (std::size_t l = 0; l < kLevelCount; ++l) {
    for (std::size_t s = 0; s < kSeedsPerLevel; ++s) {
      const RunResult& r = results[l * kSeedsPerLevel + s];
      for (std::size_t m = 0; m < kModalityCount; ++m) {
        mean_share[l][m] += r.nu_share[m] / kSeedsPerLevel;
      }
    }
  }

  Table table({"fault level", "MTBF h", "outages", "node-h lost", "requeued",
               "outage-killed", "hazard fails", "brownouts", "NU drift",
               "accuracy", "invariants"});
  bool all_ok = true;
  std::size_t total_checks = 0;
  exp::OptionalCsv csv(options.csv,
                       {"level", "mtbf_hours", "outages", "node_hours_lost",
                        "requeued", "outage_killed", "hazard_failures",
                        "brownouts", "nu_drift", "accuracy"});
  for (std::size_t l = 0; l < kLevelCount; ++l) {
    std::uint64_t outages = 0, requeued = 0, killed = 0, hazards = 0,
                  brownouts = 0;
    double node_hours = 0.0;
    RunningStats accuracy;
    bool level_ok = true;
    for (std::size_t s = 0; s < kSeedsPerLevel; ++s) {
      const RunResult& r = results[l * kSeedsPerLevel + s];
      outages += r.faults.outages;
      node_hours += r.faults.node_hours_lost;
      requeued += r.requeued;
      killed += r.outage_killed;
      hazards += r.faults.hazard_failures;
      brownouts += r.faults.brownouts;
      accuracy.add(r.accuracy);
      level_ok = level_ok && r.invariants_ok;
      total_checks += r.invariant_checks;
      if (!r.invariants_ok && all_ok) {
        std::cout << "FIRST VIOLATION (" << kLevels[l].name << "/" << s
                  << "): " << r.first_violation << "\n";
      }
      all_ok = all_ok && r.invariants_ok;
    }
    // Total-variation distance between mean NU-share vectors.
    double drift = 0.0;
    for (std::size_t m = 0; m < kModalityCount; ++m) {
      drift += std::abs(mean_share[l][m] - mean_share[0][m]);
    }
    drift /= 2.0;
    table.add_row({kLevels[l].name, Table::num(kLevels[l].mtbf_hours, 0),
                   Table::num(static_cast<std::int64_t>(outages)),
                   Table::num(node_hours, 1),
                   Table::num(static_cast<std::int64_t>(requeued)),
                   Table::num(static_cast<std::int64_t>(killed)),
                   Table::num(static_cast<std::int64_t>(hazards)),
                   Table::num(static_cast<std::int64_t>(brownouts)),
                   Table::num(drift, 4), Table::pct(accuracy.mean()),
                   level_ok ? "pass" : "FAIL"});
    csv.row({kLevels[l].name, Table::num(kLevels[l].mtbf_hours, 0),
             std::to_string(outages), Table::num(node_hours, 1),
             std::to_string(requeued), std::to_string(killed),
             std::to_string(hazards), std::to_string(brownouts),
             Table::num(drift, 4), Table::num(accuracy.mean(), 4)});
  }
  std::cout << table << "\n"
            << "Invariant audit: " << (all_ok ? "all runs pass" : "FAILED")
            << " (" << total_checks << " checks across "
            << kLevelCount * kSeedsPerLevel << " runs)\n";
  obsv.finish();
  return all_ok ? 0 : 1;
}
