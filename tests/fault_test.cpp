// Fault-injection semantics: outage preemption and requeue at the
// scheduler, the FaultModel's outage/hazard/brownout processes, resource
// avoidance in the metascheduler, and determinism of faulty runs.
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "gateway/gateway.hpp"
#include "infra/platform.hpp"
#include "meta/selector.hpp"
#include "sched/pool.hpp"
#include "sched/scheduler.hpp"
#include "util/error.hpp"
#include "workload/scenario.hpp"

namespace tg {
namespace {

ComputeResource test_resource(int nodes = 16, int cores = 8) {
  ComputeResource r;
  r.id = ResourceId{0};
  r.site = SiteId{0};
  r.name = "test";
  r.nodes = nodes;
  r.cores_per_node = cores;
  r.max_walltime = 48 * kHour;
  return r;
}

JobRequest simple_job(int nodes, Duration actual, Duration requested = 0) {
  JobRequest req;
  req.user = UserId{1};
  req.project = ProjectId{1};
  req.nodes = nodes;
  req.actual_runtime = actual;
  req.requested_walltime = requested > 0 ? requested : actual;
  return req;
}

struct Harness {
  Engine engine;
  ComputeResource res;
  ResourceScheduler sched;
  std::vector<Job> finished;

  explicit Harness(SchedulerConfig cfg = {}, int nodes = 16)
      : res(test_resource(nodes)), sched(engine, res, cfg) {
    sched.add_on_end([this](const Job& j) { finished.push_back(j); });
  }
};

TEST(Outage, PreemptsRequeuesAndCompletes) {
  SchedulerConfig cfg;
  cfg.outage_retry_backoff = 10 * kMinute;
  Harness h(cfg);
  const JobId id = h.sched.submit(simple_job(16, 4 * kHour));
  h.engine.run_until(kHour);

  const int taken = h.sched.begin_outage(16, kHour + 2 * kHour);
  EXPECT_EQ(taken, 16);
  EXPECT_EQ(h.sched.nodes_down(), 16);
  EXPECT_EQ(h.sched.available_nodes(), 0);
  // The lost attempt was reported immediately with kRequeued.
  ASSERT_EQ(h.finished.size(), 1u);
  EXPECT_EQ(h.finished[0].id, id);
  EXPECT_EQ(h.finished[0].state, JobState::kRequeued);
  EXPECT_EQ(h.finished[0].start_time, 0);
  EXPECT_EQ(h.finished[0].end_time, kHour);

  h.engine.run_until(3 * kHour);
  h.sched.end_outage(16);
  h.engine.run();
  // Second attempt runs to completion after the repair; the first hour of
  // work was lost, so the rerun takes the full 4 hours.
  ASSERT_EQ(h.finished.size(), 2u);
  EXPECT_EQ(h.finished[1].id, id);
  EXPECT_EQ(h.finished[1].state, JobState::kCompleted);
  EXPECT_GE(h.finished[1].start_time, 3 * kHour);
  EXPECT_EQ(h.finished[1].runtime(), 4 * kHour);
  EXPECT_EQ(h.finished[1].preemptions, 1);
  EXPECT_EQ(h.sched.free_nodes(), 16);
  EXPECT_EQ(h.sched.metrics().jobs_preempted(), 1u);
  EXPECT_EQ(h.sched.metrics().jobs_requeued(), 1u);
  EXPECT_EQ(h.sched.metrics().jobs_killed_by_outage(), 0u);
  EXPECT_DOUBLE_EQ(h.sched.metrics().lost_core_seconds(), 3600.0 * 16 * 8);
}

TEST(Outage, BackoffDelaysRequeue) {
  SchedulerConfig cfg;
  cfg.outage_retry_backoff = kHour;
  Harness h(cfg);
  h.sched.submit(simple_job(16, 8 * kHour));
  h.engine.run_until(kMinute);
  h.sched.begin_outage(16, 2 * kMinute);
  h.engine.run_until(2 * kMinute);
  h.sched.end_outage(16);
  h.engine.run();
  // Nodes were back at 2min but the backoff holds the job out until 1h1min.
  ASSERT_EQ(h.finished.size(), 2u);
  EXPECT_EQ(h.finished[1].start_time, kMinute + kHour);
}

TEST(Outage, RetryBudgetExhaustionKills) {
  SchedulerConfig cfg;
  cfg.outage_retry_limit = 1;
  cfg.outage_retry_backoff = kMinute;
  Harness h(cfg);
  const JobId id = h.sched.submit(simple_job(16, 10 * kHour));
  h.engine.run_until(kHour);
  h.sched.begin_outage(16, kHour + kMinute);
  h.sched.end_outage(16);
  h.engine.run_until(2 * kHour);  // past backoff: second attempt running
  h.sched.begin_outage(16, 3 * kHour);
  h.engine.run();
  ASSERT_EQ(h.finished.size(), 2u);
  EXPECT_EQ(h.finished[0].state, JobState::kRequeued);
  EXPECT_EQ(h.finished[1].state, JobState::kKilledByOutage);
  EXPECT_EQ(h.finished[1].id, id);
  EXPECT_EQ(h.sched.metrics().jobs_killed_by_outage(), 1u);
  // The job is gone: nothing requeues after the kill.
  h.sched.end_outage(16);
  h.engine.run();
  EXPECT_EQ(h.finished.size(), 2u);
  EXPECT_EQ(h.sched.running_jobs(), 0u);
  EXPECT_EQ(h.sched.queue_length(), 0u);
}

TEST(Outage, VictimsAreYoungestFirst) {
  Harness h;
  const JobId old_job = h.sched.submit(simple_job(8, 10 * kHour));
  h.engine.run_until(kHour);
  h.sched.submit(simple_job(8, 10 * kHour));
  h.engine.run_until(2 * kHour);
  // Need 4 nodes: preempting the younger 8-node job suffices.
  EXPECT_EQ(h.sched.begin_outage(4, 3 * kHour), 4);
  ASSERT_EQ(h.finished.size(), 1u);
  EXPECT_NE(h.finished[0].id, old_job);
  EXPECT_EQ(h.finished[0].state, JobState::kRequeued);
  EXPECT_EQ(h.sched.job(old_job).state, JobState::kRunning);
}

TEST(Outage, PartialTakesOnlyFreeNodesWhenIdle) {
  Harness h;
  EXPECT_EQ(h.sched.begin_outage(5, kHour), 5);
  EXPECT_EQ(h.sched.free_nodes(), 11);
  EXPECT_EQ(h.sched.available_nodes(), 11);
  // A second overlapping outage can take at most what is still up.
  EXPECT_EQ(h.sched.begin_outage(16, 2 * kHour), 11);
  EXPECT_EQ(h.sched.nodes_down(), 16);
  h.sched.end_outage(11);
  h.sched.end_outage(5);
  EXPECT_EQ(h.sched.nodes_down(), 0);
  EXPECT_EQ(h.sched.free_nodes(), 16);
  EXPECT_THROW(h.sched.end_outage(1), PreconditionError);
}

TEST(Outage, QueuedJobsWaitOutTheOutage) {
  Harness h;
  h.sched.begin_outage(16, 5 * kHour);
  h.sched.submit(simple_job(16, kHour));
  h.engine.run_until(4 * kHour);
  EXPECT_EQ(h.sched.running_jobs(), 0u);  // nothing can start
  h.sched.end_outage(16);
  h.engine.run();
  ASSERT_EQ(h.finished.size(), 1u);
  EXPECT_EQ(h.finished[0].state, JobState::kCompleted);
  EXPECT_GE(h.finished[0].start_time, 4 * kHour);
}

TEST(Outage, BreaksReservationWhoseNodesDied) {
  Harness h;
  const ReservationId rid = h.sched.reserve(2 * kHour, kHour, 16);
  ASSERT_TRUE(rid.valid());
  const JobId jid = h.sched.attach_to_reservation(rid, simple_job(16, kHour));
  h.engine.run_until(kHour);
  h.sched.begin_outage(16, 5 * kHour);
  h.engine.run_until(3 * kHour);
  // Window opened while the machine was down: reservation broken, attached
  // job cancelled (it never ran, so kCancelled not kKilledByOutage).
  ASSERT_EQ(h.finished.size(), 1u);
  EXPECT_EQ(h.finished[0].id, jid);
  EXPECT_EQ(h.finished[0].state, JobState::kCancelled);
  h.sched.end_outage(16);
  h.engine.run();
  EXPECT_EQ(h.sched.free_nodes(), 16);
}

TEST(Interrupt, KillsRunningJobOnly) {
  Harness h;
  const JobId running = h.sched.submit(simple_job(16, 4 * kHour));
  const JobId queued = h.sched.submit(simple_job(16, kHour));
  h.engine.run_until(kHour);
  EXPECT_FALSE(h.sched.interrupt(queued, JobState::kFailed));
  EXPECT_FALSE(h.sched.interrupt(JobId{999}, JobState::kFailed));
  EXPECT_THROW(h.sched.interrupt(running, JobState::kCompleted),
               PreconditionError);
  EXPECT_TRUE(h.sched.interrupt(running, JobState::kFailed));
  ASSERT_EQ(h.finished.size(), 1u);
  EXPECT_EQ(h.finished[0].id, running);
  EXPECT_EQ(h.finished[0].state, JobState::kFailed);
  EXPECT_EQ(h.finished[0].end_time, kHour);
  h.engine.run();
  // The queued job takes over the freed nodes.
  ASSERT_EQ(h.finished.size(), 2u);
  EXPECT_EQ(h.finished[1].id, queued);
  EXPECT_EQ(h.finished[1].state, JobState::kCompleted);
}

TEST(FaultModel, OutageLoopTakesAndRepairsNodes) {
  Engine engine;
  const Platform platform = mini_platform();
  SchedulerPool pool(engine, platform);
  FaultConfig config;
  config.outage.mtbf_hours = 24.0;
  config.outage.repair_mean_hours = 2.0;
  FaultModel faults(engine, pool, config, 30 * kDay, Rng(7));
  faults.start();
  engine.run();
  EXPECT_GT(faults.stats().outages, 0u);
  EXPECT_EQ(faults.stats().repairs, faults.stats().outages);
  EXPECT_GT(faults.stats().node_hours_lost, 0.0);
  for (const ResourceId id : pool.resource_ids()) {
    EXPECT_EQ(pool.at(id).nodes_down(), 0);
    EXPECT_EQ(pool.at(id).free_nodes(), pool.at(id).resource().nodes);
  }
  // Fault events stop initiating at the horizon, so the drain terminated
  // not far past it.
  EXPECT_LT(engine.now(), 30 * kDay + kDay);
}

TEST(FaultModel, HazardFailsRunningJobs) {
  Engine engine;
  const Platform platform = mini_platform();
  SchedulerPool pool(engine, platform);
  FaultConfig config;
  config.job_failure_rate_per_hour = 2.0;  // mean life 30 min
  FaultModel faults(engine, pool, config, 30 * kDay, Rng(7));
  faults.start();
  int failed = 0;
  int total = 0;
  pool.add_on_end_all([&](const Job& j) {
    ++total;
    if (j.state == JobState::kFailed) ++failed;
  });
  const ResourceId target = pool.resource_ids().front();
  for (int i = 0; i < 20; ++i) {
    pool.at(target).submit(simple_job(1, 4 * kHour));
  }
  engine.run();
  EXPECT_EQ(total, 20);
  EXPECT_GT(failed, 10);  // P(survive 4h at rate 2/h) is ~3e-4
  EXPECT_EQ(faults.stats().hazard_failures, static_cast<std::uint64_t>(failed));
}

TEST(FaultModel, DisabledConfigSchedulesNothing) {
  EXPECT_FALSE(FaultConfig{}.enabled());
  Engine engine;
  const Platform platform = mini_platform();
  SchedulerPool pool(engine, platform);
  FaultModel faults(engine, pool, FaultConfig{}, 30 * kDay, Rng(7));
  faults.start();
  engine.run();
  EXPECT_EQ(engine.now(), 0);
  EXPECT_EQ(faults.stats().outages, 0u);
}

TEST(FaultModel, RejectsBadConfig) {
  Engine engine;
  const Platform platform = mini_platform();
  SchedulerPool pool(engine, platform);
  FaultConfig bad;
  bad.outage.mtbf_hours = 100.0;
  bad.outage.full_outage_prob = 1.5;
  EXPECT_THROW(FaultModel(engine, pool, bad, kDay, Rng(1)), PreconditionError);
}

TEST(Gateway, BrownoutDropsSubmissions) {
  Engine engine;
  const Platform platform = mini_platform();
  SchedulerPool pool(engine, platform);
  GatewayConfig config;
  config.name = "gw";
  config.community_account = UserId{0};
  config.project = ProjectId{0};
  config.targets = pool.resource_ids();
  Gateway gw(engine, pool, GatewayId{0}, config);
  Rng rng(3);
  GatewayJobSpec spec;
  spec.nodes = 1;
  spec.requested_walltime = kHour;
  spec.actual_runtime = kHour;
  EXPECT_TRUE(gw.available());
  EXPECT_TRUE(gw.submit(EndUserId{0}, spec, rng).valid());
  gw.set_available(false);
  EXPECT_FALSE(gw.submit(EndUserId{1}, spec, rng).valid());
  EXPECT_FALSE(gw.submit(EndUserId{2}, spec, rng).valid());
  EXPECT_EQ(gw.jobs_dropped(), 2u);
  gw.set_available(true);
  EXPECT_TRUE(gw.submit(EndUserId{3}, spec, rng).valid());
  EXPECT_EQ(gw.jobs_submitted(), 2u);
}

TEST(Selector, AvoidsResourcesInOutage) {
  Engine engine;
  const Platform platform = mini_platform();
  SchedulerPool pool(engine, platform);
  ResourceSelector selector;
  const auto ids = pool.resource_ids();
  ASSERT_EQ(ids.size(), 2u);
  // Take down whichever resource the selector would otherwise pick.
  const ResourceId preferred = selector.select(pool, 1, kHour);
  pool.at(preferred).begin_outage(pool.at(preferred).resource().nodes,
                                  kDay);
  const ResourceId alternate = selector.select(pool, 1, kHour);
  EXPECT_NE(alternate, preferred);
  // With every machine down, selection falls back to ignoring
  // availability rather than failing.
  pool.at(alternate).begin_outage(pool.at(alternate).resource().nodes, kDay);
  EXPECT_TRUE(selector.select(pool, 1, kHour).valid());
}

TEST(Scenario, FaultyRunsAreDeterministic) {
  const auto run = [] {
    ScenarioConfig config;
    config.seed = 11;
    config.horizon = 30 * kDay;
    config.mini_platform = true;
    config.faults.outage.mtbf_hours = 48.0;
    config.faults.job_failure_rate_per_hour = 0.001;
    config.faults.gateway_brownouts_per_week = 1.0;
    Scenario scenario(std::move(config));
    scenario.run();
    return std::make_tuple(scenario.db().jobs().size(),
                           scenario.db().total_nu(),
                           scenario.fault_stats().outages,
                           scenario.fault_stats().hazard_failures,
                           scenario.fault_stats().brownouts,
                           scenario.engine().now());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
  EXPECT_GT(std::get<2>(a), 0u);  // outages actually happened
}

TEST(Scenario, FaultFreeConfigBuildsNoModel) {
  ScenarioConfig config;
  config.seed = 11;
  config.horizon = 5 * kDay;
  config.mini_platform = true;
  Scenario scenario(std::move(config));
  EXPECT_EQ(scenario.faults(), nullptr);
  EXPECT_EQ(scenario.fault_stats().outages, 0u);
}

}  // namespace
}  // namespace tg
