// Experiment F13 — what should a scheduler do with outage-preempted jobs?
// Under fixed fault pressure, sweep the outage retry policy (retry budget x
// backoff base) and compare delivered NUs, work lost to preemption, jobs
// killed outright, and the queue wait experienced by completed jobs. All
// policy cells run in parallel; output is byte-identical at every --jobs
// level.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench/exp_common.hpp"
#include "fault/invariants.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace tg;

constexpr int kRetryLimits[] = {0, 1, 3, 6};
constexpr Duration kBackoffs[] = {5 * kMinute, 15 * kMinute, kHour};

struct CellResult {
  double delivered_nu = 0.0;
  double lost_core_hours = 0.0;
  std::uint64_t preempted = 0;
  std::uint64_t requeued = 0;
  std::uint64_t outage_killed = 0;
  double mean_wait_hours = 0.0;
  bool invariants_ok = false;
};

CellResult run_cell(int retry_limit, Duration backoff, bool plan_cache) {
  ScenarioConfig config;
  config.seed = 4242;
  config.sched.plan_cache = plan_cache;
  config.horizon = 120 * kDay;
  // Heavy pressure (per-resource MTBF ~3.5 days, frequent partial outages)
  // so that jobs can be preempted repeatedly and the retry budget matters.
  config.faults.outage.mtbf_hours = 84.0;
  config.faults.outage.full_outage_prob = 0.3;
  config.faults.outage.repair_mean_hours = 8.0;
  config.sched.outage_retry_limit = retry_limit;
  config.sched.outage_retry_backoff = backoff;
  Scenario scenario(std::move(config));
  scenario.run();

  CellResult out;
  out.delivered_nu = scenario.db().total_nu();
  for (const ResourceId id : scenario.pool().resource_ids()) {
    const SchedulerMetrics& m = scenario.pool().at(id).metrics();
    out.lost_core_hours += m.lost_core_seconds() / 3600.0;
    out.preempted += m.jobs_preempted();
    out.outage_killed += m.jobs_killed_by_outage();
  }
  out.requeued = scenario.db().disposition_count(Disposition::kRequeued);
  double wait_hours = 0.0;
  std::uint64_t completed = 0;
  for (const JobRecord& r : scenario.db().jobs()) {
    if (r.disposition != Disposition::kCompleted) continue;
    wait_hours += to_hours(r.wait());
    ++completed;
  }
  out.mean_wait_hours = completed > 0 ? wait_hours / completed : 0.0;
  out.invariants_ok = scenario.audit_now(AuditPhase::kFinal).ok();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const exp::Options options =
      exp::Options::parse(argc, argv, "exp_retry_policies",
                          exp::kJobs | exp::kCsv | exp::kTrace |
                          exp::kExactReplan);
  exp::Observability obsv(options);
  exp::banner("F13", "Outage retry policy sweep under heavy outage pressure");

  constexpr std::size_t kCells = std::size(kRetryLimits) * std::size(kBackoffs);
  Replicator pool(options.jobs);
  const auto results = obsv.replicate(
      pool, kCells,
      [plan_cache = !options.exact_replan](std::size_t i) {
        return run_cell(kRetryLimits[i / std::size(kBackoffs)],
                        kBackoffs[i % std::size(kBackoffs)], plan_cache);
      });

  Table table({"retries", "backoff", "delivered NU", "lost core-h",
               "preempted", "requeued", "outage-killed", "mean wait h",
               "invariants"});
  exp::OptionalCsv csv(options.csv,
                       {"retry_limit", "backoff_min", "delivered_nu",
                        "lost_core_hours", "preempted", "requeued",
                        "outage_killed", "mean_wait_hours"});
  bool all_ok = true;
  for (std::size_t i = 0; i < kCells; ++i) {
    const int limit = kRetryLimits[i / std::size(kBackoffs)];
    const Duration backoff = kBackoffs[i % std::size(kBackoffs)];
    const CellResult& r = results[i];
    all_ok = all_ok && r.invariants_ok;
    table.add_row({Table::num(static_cast<std::int64_t>(limit)),
                   format_duration(backoff), Table::num(r.delivered_nu, 1),
                   Table::num(r.lost_core_hours, 1),
                   Table::num(static_cast<std::int64_t>(r.preempted)),
                   Table::num(static_cast<std::int64_t>(r.requeued)),
                   Table::num(static_cast<std::int64_t>(r.outage_killed)),
                   Table::num(r.mean_wait_hours, 2),
                   r.invariants_ok ? "pass" : "FAIL"});
    csv.row({std::to_string(limit),
             Table::num(to_hours(backoff) * 60.0, 0),
             Table::num(r.delivered_nu, 1), Table::num(r.lost_core_hours, 1),
             std::to_string(r.preempted), std::to_string(r.requeued),
             std::to_string(r.outage_killed),
             Table::num(r.mean_wait_hours, 4)});
  }
  std::cout << table << "\n"
            << "Invariant audit: " << (all_ok ? "all cells pass" : "FAILED")
            << "\n";
  obsv.finish();
  return all_ok ? 0 : 1;
}
