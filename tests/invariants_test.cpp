#include "fault/invariants.hpp"

#include <gtest/gtest.h>

#include <string>

#include "workload/scenario.hpp"

namespace tg {
namespace {

// A self-consistent completed-job record on mini_platform's ClusterA
// (16 nodes x 8 cores, charge factor 1.0): su = node-hours actually held,
// nu = su x factor. Tests then corrupt one field at a time.
JobRecord good_record(int job, SimTime start, Duration run, int nodes = 2,
                      UserId user = UserId{1}) {
  JobRecord r;
  r.job = JobId{job};
  r.resource = ResourceId{0};
  r.user = user;
  r.project = ProjectId{0};
  r.submit_time = start;
  r.start_time = start;
  r.end_time = start + run;
  r.nodes = nodes;
  r.cores_per_node = 8;
  r.requested_walltime = 2 * run;
  r.final_state = JobState::kCompleted;
  r.disposition = Disposition::kCompleted;
  r.charged_su = to_hours(run) * nodes * 8;
  r.charged_nu = r.charged_su;  // ClusterA factor is 1.0
  return r;
}

bool mentions(const InvariantReport& report, const std::string& needle) {
  for (const std::string& v : report.violations) {
    if (v.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(Invariants, PassesOnHandBuiltConsistentDatabase) {
  const Platform platform = mini_platform();
  UsageDatabase db;
  db.add(good_record(1, 0, kHour));
  db.add(good_record(2, kHour, 2 * kHour, 4, UserId{2}));
  TransferRecord t;
  t.transfer = TransferId{1};
  t.user = UserId{1};
  t.bytes = 1e9;
  t.submit_time = kHour;
  t.end_time = 2 * kHour;
  db.add(t);
  SessionRecord s;
  s.user = UserId{2};
  s.resource = ResourceId{1};
  s.start_time = 0;
  s.end_time = kHour;
  db.add(s);

  const InvariantReport report = check_invariants(platform, db);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.checks, 0u);
  EXPECT_NE(report.to_string().find("OK"), std::string::npos);
}

TEST(Invariants, PassesOnFaultFreeScenario) {
  ScenarioConfig config;
  config.mini_platform = true;
  config.horizon = 30 * kDay;
  Scenario scenario(std::move(config));
  scenario.run();
  const InvariantReport report = check_invariants(
      scenario.platform(), scenario.db(), &scenario.ledger(),
      &scenario.community(), &scenario.pool());
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.checks, 100u);
}

TEST(Invariants, PassesOnFaultyScenario) {
  ScenarioConfig config;
  config.mini_platform = true;
  config.horizon = 30 * kDay;
  config.faults.outage.mtbf_hours = 96.0;
  config.faults.job_failure_rate_per_hour = 0.001;
  config.faults.gateway_brownouts_per_week = 0.5;
  Scenario scenario(std::move(config));
  scenario.run();
  ASSERT_NE(scenario.faults(), nullptr);
  EXPECT_GT(scenario.fault_stats().outages, 0u);
  const InvariantReport report = check_invariants(
      scenario.platform(), scenario.db(), &scenario.ledger(),
      &scenario.community(), &scenario.pool());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Invariants, CatchesTimeDisorder) {
  const Platform platform = mini_platform();
  UsageDatabase db;
  JobRecord r = good_record(1, kHour, kHour);
  r.end_time = r.start_time - kMinute;  // ends before it starts
  db.add(r);
  const InvariantReport report = check_invariants(platform, db);
  EXPECT_FALSE(report.ok());
}

TEST(Invariants, CatchesStreamDisorder) {
  // The live Recorder appends in completion order; a stream sorted any
  // other way means the feed was tampered with or merged incorrectly.
  const Platform platform = mini_platform();
  UsageDatabase db;
  db.add(good_record(1, 5 * kHour, kHour));
  db.add(good_record(2, 0, kHour));  // earlier end appended later
  const InvariantReport report = check_invariants(platform, db);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "sorted") || mentions(report, "monoton"))
      << report.to_string();
}

TEST(Invariants, CatchesNegativeCharge) {
  const Platform platform = mini_platform();
  UsageDatabase db;
  JobRecord r = good_record(1, 0, kHour);
  r.charged_su = -1.0;
  r.charged_nu = -1.0;
  db.add(r);
  EXPECT_FALSE(check_invariants(platform, db).ok());
}

TEST(Invariants, CatchesChargeFactorMismatch) {
  const Platform platform = mini_platform();
  UsageDatabase db;
  JobRecord r = good_record(1, 0, kHour);
  r.charged_nu = r.charged_su * 3.0;  // ClusterA's factor is 1.0
  db.add(r);
  EXPECT_FALSE(check_invariants(platform, db).ok());
}

TEST(Invariants, CatchesSuNotMatchingHeldNodeHours) {
  const Platform platform = mini_platform();
  UsageDatabase db;
  JobRecord r = good_record(1, 0, kHour);
  r.charged_su *= 2.0;  // charged twice the node-hours actually held
  r.charged_nu = r.charged_su;
  db.add(r);
  EXPECT_FALSE(check_invariants(platform, db).ok());
}

TEST(Invariants, CatchesChargedRefundableAttempt) {
  // Work lost to an outage is refunded: an outage-killed attempt must
  // carry a zero charge.
  const Platform platform = mini_platform();
  UsageDatabase db;
  JobRecord r = good_record(1, 0, kHour);
  r.final_state = JobState::kKilledByOutage;
  r.disposition = Disposition::kKilledByOutage;
  db.add(r);  // still charged full node-hours
  EXPECT_FALSE(check_invariants(platform, db).ok());
}

TEST(Invariants, CatchesNonTerminalLastRecord) {
  const Platform platform = mini_platform();
  UsageDatabase db;
  JobRecord r = good_record(1, 0, kHour);
  r.final_state = JobState::kRequeued;
  r.disposition = Disposition::kRequeued;
  r.charged_su = 0.0;
  r.charged_nu = 0.0;
  db.add(r);  // a requeued attempt with no later terminal attempt
  const InvariantReport report = check_invariants(platform, db);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "terminal")) << report.to_string();
}

TEST(Invariants, RequeuedThenTerminalAttemptIsLegal) {
  const Platform platform = mini_platform();
  UsageDatabase db;
  JobRecord first = good_record(1, 0, kHour);
  first.final_state = JobState::kRequeued;
  first.disposition = Disposition::kRequeued;
  first.charged_su = 0.0;
  first.charged_nu = 0.0;
  db.add(first);
  JobRecord second = good_record(1, 2 * kHour, 2 * kHour);
  second.submit_time = 0;
  db.add(second);
  const InvariantReport report = check_invariants(platform, db);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Invariants, CatchesTerminalFollowedByAnotherAttempt) {
  const Platform platform = mini_platform();
  UsageDatabase db;
  db.add(good_record(1, 0, kHour));            // terminal
  db.add(good_record(1, 2 * kHour, kHour));    // same job runs again
  EXPECT_FALSE(check_invariants(platform, db).ok());
}

TEST(Invariants, CatchesOverCapacityInterval) {
  // Two concurrent jobs claiming 12 nodes each on a 16-node machine: the
  // records imply 24 nodes in use at once.
  const Platform platform = mini_platform();
  UsageDatabase db;
  db.add(good_record(1, 0, 4 * kHour, 12));
  db.add(good_record(2, kHour, kHour, 12, UserId{2}));
  const InvariantReport report = check_invariants(platform, db);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "capacity") || mentions(report, "nodes"))
      << report.to_string();
}

TEST(Invariants, BackToBackFullMachineJobsAreLegal) {
  // Release at t must be processed before acquire at t: a job starting the
  // instant its predecessor ends is not a capacity violation.
  const Platform platform = mini_platform();
  UsageDatabase db;
  db.add(good_record(1, 0, kHour, 16));
  db.add(good_record(2, kHour, kHour, 16, UserId{2}));
  const InvariantReport report = check_invariants(platform, db);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// --- mid-run audits (AuditPhase::kMidRun) ----------------------------------

TEST(Invariants, MidRunAllowsPendingRetry) {
  // A job whose newest record is kRequeued is a violation after the drain
  // (its retry never ended) but perfectly healthy mid-run: the retry is
  // still queued. The mid-run phase must accept exactly this state.
  const Platform platform = mini_platform();
  UsageDatabase db;
  JobRecord r = good_record(1, 0, kHour);
  r.final_state = JobState::kRequeued;
  r.disposition = Disposition::kRequeued;
  r.charged_su = 0.0;
  r.charged_nu = 0.0;
  db.add(r);
  EXPECT_FALSE(check_invariants(platform, db).ok());
  EXPECT_TRUE(check_invariants(platform, db, nullptr, nullptr, nullptr,
                               AuditPhase::kMidRun)
                  .ok());
}

TEST(Invariants, MidRunChecksPoolBoundsNotQuiescence) {
  // Pause a simulation in flight: a job is running and nodes are down, so
  // the final-phase quiescence family must flag the pool while the mid-run
  // phase (which only demands consistent node accounting) passes.
  const Platform platform = mini_platform();
  Engine engine;
  SchedulerPool pool(engine, platform);
  UsageDatabase db;
  Recorder recorder(platform, db);
  recorder.attach(pool);

  ResourceScheduler& cluster = pool.at(ResourceId{0});
  JobRequest longer;
  longer.user = UserId{1};
  longer.project = ProjectId{1};
  longer.nodes = 4;
  longer.requested_walltime = 4 * kHour;
  longer.actual_runtime = 4 * kHour;
  JobRequest shorter = longer;
  shorter.nodes = 2;
  shorter.requested_walltime = kHour;
  shorter.actual_runtime = kHour;
  cluster.submit(longer);
  cluster.submit(shorter);  // ends at 1h: the db has one real record
  engine.run_until(2 * kHour);
  ASSERT_GT(cluster.begin_outage(2, kHour), 0);

  const InvariantReport final_report =
      check_invariants(platform, db, nullptr, nullptr, &pool);
  EXPECT_FALSE(final_report.ok());  // running job + downed nodes
  const InvariantReport mid = check_invariants(
      platform, db, nullptr, nullptr, &pool, AuditPhase::kMidRun);
  EXPECT_TRUE(mid.ok()) << mid.to_string();
  EXPECT_GT(mid.checks, 0u);
}

TEST(Invariants, RecurringAuditPassesOnFaultyScenario) {
  // --audit-every end to end: a faulty run audited every two sim-days
  // completes without an InvariantError and still passes the full final
  // audit — and the audits must not perturb the simulation itself.
  ScenarioConfig audited;
  audited.mini_platform = true;
  audited.horizon = 20 * kDay;
  audited.faults.outage.mtbf_hours = 96.0;
  audited.faults.job_failure_rate_per_hour = 0.001;
  audited.audit_every = 2 * kDay;
  ScenarioConfig plain = audited;
  plain.audit_every = 0;

  Scenario with_audits(std::move(audited));
  EXPECT_NO_THROW(with_audits.run());
  const InvariantReport final_report =
      with_audits.audit_now(AuditPhase::kFinal);
  EXPECT_TRUE(final_report.ok()) << final_report.to_string();

  Scenario reference(std::move(plain));
  reference.run();
  EXPECT_EQ(reference.db().jobs().size(), with_audits.db().jobs().size());
  EXPECT_EQ(reference.db().total_nu(), with_audits.db().total_nu());
}

TEST(Invariants, ViolationListIsBounded) {
  const Platform platform = mini_platform();
  UsageDatabase db;
  for (int i = 0; i < 100; ++i) {
    JobRecord r = good_record(i + 1, i * kHour, kHour);
    r.charged_nu = -1.0;  // every record violates charge sanity
    db.add(r);
  }
  const InvariantReport report = check_invariants(platform, db);
  EXPECT_FALSE(report.ok());
  EXPECT_LE(report.violations.size(), kMaxViolations + 1);
}

}  // namespace
}  // namespace tg
