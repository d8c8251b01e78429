#include "sched/scheduler.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "infra/platform.hpp"
#include "sched/pool.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

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
  std::vector<Job> started;

  explicit Harness(SchedulerConfig cfg = {}, int nodes = 16)
      : res(test_resource(nodes)), sched(engine, res, cfg) {
    sched.add_on_end([this](const Job& j) { finished.push_back(j); });
    sched.add_on_start([this](const Job& j) { started.push_back(j); });
  }
};

TEST(Scheduler, SingleJobRunsImmediately) {
  Harness h;
  const JobId id = h.sched.submit(simple_job(4, kHour));
  h.engine.run();
  ASSERT_EQ(h.finished.size(), 1u);
  EXPECT_EQ(h.finished[0].id, id);
  EXPECT_EQ(h.finished[0].start_time, 0);
  EXPECT_EQ(h.finished[0].end_time, kHour);
  EXPECT_EQ(h.finished[0].state, JobState::kCompleted);
  EXPECT_EQ(h.sched.free_nodes(), 16);
}

TEST(Scheduler, ValidatesRequests) {
  Harness h;
  EXPECT_THROW(h.sched.submit(simple_job(0, kHour)), PreconditionError);
  EXPECT_THROW(h.sched.submit(simple_job(17, kHour)), PreconditionError);
  EXPECT_THROW(h.sched.submit(simple_job(4, kHour, 100 * kHour)),
               PreconditionError);
  EXPECT_THROW(h.sched.submit(simple_job(4, 0)), PreconditionError);
}

TEST(Scheduler, JobsQueueWhenFull) {
  Harness h;
  h.sched.submit(simple_job(16, kHour));
  h.sched.submit(simple_job(16, kHour));
  EXPECT_EQ(h.sched.running_jobs(), 1u);
  EXPECT_EQ(h.sched.queue_length(), 1u);
  h.engine.run();
  ASSERT_EQ(h.finished.size(), 2u);
  EXPECT_EQ(h.finished[1].start_time, kHour);
  EXPECT_EQ(h.finished[1].wait(), kHour);
}

TEST(Scheduler, KilledAtRequestedWalltime) {
  Harness h;
  // Actual 3h but requested only 2h -> killed at 2h.
  h.sched.submit(simple_job(4, 3 * kHour, 2 * kHour));
  h.engine.run();
  ASSERT_EQ(h.finished.size(), 1u);
  EXPECT_EQ(h.finished[0].state, JobState::kKilled);
  EXPECT_EQ(h.finished[0].end_time, 2 * kHour);
}

TEST(Scheduler, FailureInjection) {
  Harness h;
  JobRequest req = simple_job(4, 2 * kHour, 3 * kHour);
  req.fails = true;
  req.fail_after = 30 * kMinute;
  h.sched.submit(std::move(req));
  h.engine.run();
  ASSERT_EQ(h.finished.size(), 1u);
  EXPECT_EQ(h.finished[0].state, JobState::kFailed);
  EXPECT_EQ(h.finished[0].end_time, 30 * kMinute);
}

TEST(Scheduler, CancelQueuedJob) {
  Harness h;
  h.sched.submit(simple_job(16, kHour));
  const JobId queued = h.sched.submit(simple_job(16, kHour));
  EXPECT_TRUE(h.sched.cancel(queued));
  EXPECT_FALSE(h.sched.cancel(queued));  // gone
  h.engine.run();
  ASSERT_EQ(h.finished.size(), 2u);  // cancel also reports via on_end
  EXPECT_EQ(h.finished[0].state, JobState::kCancelled);
  EXPECT_EQ(h.finished[1].state, JobState::kCompleted);
}

TEST(Scheduler, CancelHeavyQueueStaysConsistent) {
  // Cancel storms leave marked entries in the FIFO queue; queue_length
  // must track live jobs only, survivors must start in arrival order, and
  // dropping the marked entries must not drop or duplicate anyone.
  Harness h;
  h.sched.submit(simple_job(16, kHour));  // occupies the whole machine
  std::vector<JobId> queued;
  constexpr int kJobs = 2000;
  for (int i = 0; i < kJobs; ++i) {
    queued.push_back(h.sched.submit(simple_job(16, kMinute)));
  }
  EXPECT_EQ(h.sched.queue_length(), static_cast<std::size_t>(kJobs));
  // Cancel every job except each 100th, interleaving front/back halves so
  // marked entries land on both ends of the deque.
  std::size_t cancelled = 0;
  for (int i = 0; i < kJobs / 2; ++i) {
    for (const int j : {i, kJobs - 1 - i}) {
      if (j % 100 == 0) continue;
      ASSERT_TRUE(h.sched.cancel(queued[j]));
      ++cancelled;
    }
  }
  const std::size_t survivors = kJobs - cancelled;
  EXPECT_EQ(h.sched.queue_length(), survivors);
  h.engine.run();
  EXPECT_EQ(h.sched.queue_length(), 0u);
  // on_end saw every job exactly once: cancellations plus blocker plus
  // survivors, and the survivors completed in submission order.
  ASSERT_EQ(h.finished.size(), 1 + cancelled + survivors);
  std::vector<JobId> completed_order;
  for (const Job& j : h.finished) {
    if (j.state == JobState::kCompleted && j.req.nodes == 16 &&
        j.req.actual_runtime == kMinute) {
      completed_order.push_back(j.id);
    }
  }
  std::vector<JobId> expected;
  for (int j = 0; j < kJobs; j += 100) expected.push_back(queued[j]);
  EXPECT_EQ(completed_order, expected);
}

TEST(Scheduler, CancelFromStartObserverKeepsFifoOrder) {
  // A start observer cancels queued jobs while the pass that started the
  // job is still scanning the queue. The cancels must not shift entries
  // under the scan: the survivors start in FIFO order, and queue_length
  // counts exactly the jobs that still wait.
  Harness h(SchedulerConfig{}, 10);
  const JobId blocker = h.sched.submit(simple_job(10, kHour));
  std::vector<JobId> small;
  for (int i = 0; i < 100; ++i) {
    small.push_back(h.sched.submit(simple_job(1, kHour)));
  }
  h.sched.add_on_start([&](const Job& j) {
    if (j.id != small[0]) return;
    for (int i = 39; i <= 98; ++i) EXPECT_TRUE(h.sched.cancel(small[i]));
  });
  std::size_t waiting = 0;
  h.engine.schedule_at(kHour + kMinute,
                       [&] { waiting = h.sched.queue_length(); });
  h.engine.run();

  std::vector<JobId> expected{blocker};
  for (int i = 0; i < 39; ++i) expected.push_back(small[i]);
  expected.push_back(small[99]);
  std::vector<JobId> order;
  for (const Job& j : h.started) order.push_back(j.id);
  EXPECT_EQ(order, expected);
  ASSERT_GE(h.started.size(), 11u);
  for (std::size_t i = 1; i <= 10; ++i) {
    EXPECT_EQ(h.started[i].start_time, kHour) << "start " << i;
  }
  EXPECT_EQ(waiting, 30u);  // 100 - 10 started - 60 cancelled
  EXPECT_EQ(h.sched.queue_length(), 0u);
}

TEST(Scheduler, CancelReservationAttachedJobDetaches) {
  // A queued job attached to a reservation waits on its window, not in the
  // FIFO queue; cancelling it must detach cleanly so the reservation later
  // opens (and ends) empty instead of dereferencing a dead job.
  Harness h;
  const ReservationId r = h.sched.reserve(2 * kHour, kHour, 8);
  ASSERT_TRUE(r.valid());
  const JobId attached = h.sched.attach_to_reservation(r, simple_job(8, kHour));
  EXPECT_EQ(h.sched.queue_length(), 0u);
  EXPECT_TRUE(h.sched.cancel(attached));
  EXPECT_FALSE(h.sched.cancel(attached));
  h.engine.run();
  ASSERT_EQ(h.finished.size(), 1u);
  EXPECT_EQ(h.finished[0].state, JobState::kCancelled);
  EXPECT_EQ(h.sched.free_nodes(), 16);
}

TEST(Scheduler, CannotCancelRunningJob) {
  Harness h;
  const JobId id = h.sched.submit(simple_job(4, kHour));
  EXPECT_FALSE(h.sched.cancel(id));
  h.engine.run();
  EXPECT_EQ(h.finished[0].state, JobState::kCompleted);
}

TEST(Scheduler, EarlyCompletionTriggersNextStart) {
  Harness h;
  // Requested 10h but actually finishes in 1h; the queued job must start
  // at 1h, not at the planned 10h.
  h.sched.submit(simple_job(16, kHour, 10 * kHour));
  h.sched.submit(simple_job(16, kHour, kHour));
  h.engine.run();
  ASSERT_EQ(h.finished.size(), 2u);
  EXPECT_EQ(h.finished[1].start_time, kHour);
}

TEST(Scheduler, FcfsDoesNotBackfill) {
  SchedulerConfig cfg;
  cfg.policy = SchedPolicy::kFcfs;
  Harness h(cfg);
  // Job A holds 12 nodes for 2h. Head job B wants 16 nodes (blocked).
  // Small job C (2 nodes, 30min) could run now, but FCFS must hold it.
  h.sched.submit(simple_job(12, 2 * kHour));
  h.sched.submit(simple_job(16, kHour));
  h.sched.submit(simple_job(2, 30 * kMinute));
  h.engine.run();
  ASSERT_EQ(h.finished.size(), 3u);
  std::map<int, SimTime> start_by_width;
  for (const Job& j : h.finished) start_by_width[j.req.nodes] = j.start_time;
  EXPECT_EQ(start_by_width[12], 0);
  EXPECT_EQ(start_by_width[16], 2 * kHour);
  EXPECT_EQ(start_by_width[2], 3 * kHour);  // waited behind B
}

TEST(Scheduler, EasyBackfillsWithoutDelayingHead) {
  SchedulerConfig cfg;
  cfg.policy = SchedPolicy::kEasyBackfill;
  Harness h(cfg);
  h.sched.submit(simple_job(12, 2 * kHour));   // A
  h.sched.submit(simple_job(16, kHour));        // B (head, blocked)
  h.sched.submit(simple_job(2, 30 * kMinute));  // C fits in the hole
  h.engine.run();
  std::map<int, SimTime> start_by_width;
  for (const Job& j : h.finished) start_by_width[j.req.nodes] = j.start_time;
  EXPECT_EQ(start_by_width[2], 0);           // backfilled immediately
  EXPECT_EQ(start_by_width[16], 2 * kHour);  // head undisturbed
}

TEST(Scheduler, EasyRefusesBackfillThatWouldDelayHead) {
  SchedulerConfig cfg;
  cfg.policy = SchedPolicy::kEasyBackfill;
  Harness h(cfg);
  h.sched.submit(simple_job(12, 2 * kHour));  // A until 2h
  h.sched.submit(simple_job(16, kHour));      // B head, shadow at 2h
  // C: 4 nodes free now, but 3h runtime would push past the shadow while
  // using nodes the head needs -> must NOT start now.
  h.sched.submit(simple_job(4, 3 * kHour));
  h.engine.run();
  std::map<int, SimTime> start_by_width;
  for (const Job& j : h.finished) start_by_width[j.req.nodes] = j.start_time;
  EXPECT_EQ(start_by_width[16], 2 * kHour);
  EXPECT_EQ(start_by_width[4], 3 * kHour);  // after the head
}

TEST(Scheduler, ConservativePreservesOrderGuarantees) {
  SchedulerConfig cfg;
  cfg.policy = SchedPolicy::kConservativeBackfill;
  Harness h(cfg);
  h.sched.submit(simple_job(12, 2 * kHour));   // A
  h.sched.submit(simple_job(16, kHour));        // B planned at 2h
  h.sched.submit(simple_job(4, kHour));         // C: fits now beside A
  h.sched.submit(simple_job(4, 4 * kHour));     // D: would collide with B plan
  h.engine.run();
  std::map<int, std::vector<SimTime>> starts;
  for (const Job& j : h.finished) starts[j.req.nodes].push_back(j.start_time);
  EXPECT_EQ(starts[16][0], 2 * kHour);
  EXPECT_EQ(starts[4][0], 0);           // C backfills
  EXPECT_EQ(starts[4][1], 3 * kHour);   // D after B
}

TEST(Scheduler, UtilizationAndMetrics) {
  Harness h;
  h.sched.submit(simple_job(8, 2 * kHour));
  h.sched.submit(simple_job(8, 2 * kHour));
  h.engine.run();
  const SchedulerMetrics& m = h.sched.metrics();
  EXPECT_EQ(m.jobs_finished(), 2u);
  // 16 node-hours * 2 jobs... 8 nodes * 8 cores * 2h each = 128 core-h.
  EXPECT_NEAR(m.delivered_core_seconds(), 2 * 8 * 8 * 2 * 3600.0, 1e-6);
  // Machine 16x8=128 cores over 2h -> 256 core-hours capacity, 256 used.
  EXPECT_NEAR(m.utilization(h.res.total_cores(), 2 * kHour), 1.0, 1e-9);
  EXPECT_EQ(m.jobs_killed(), 0u);
  EXPECT_EQ(m.jobs_failed(), 0u);
}

TEST(Scheduler, EstimateStartEmptyMachine) {
  Harness h;
  EXPECT_EQ(h.sched.estimate_start(16, kHour), 0);
}

TEST(Scheduler, EstimateStartAccountsForQueue) {
  Harness h;
  h.sched.submit(simple_job(16, 2 * kHour));
  h.sched.submit(simple_job(16, kHour));
  // Machine busy 0-2h, queued head 2-3h; a 16-node job lands at 3h.
  EXPECT_EQ(h.sched.estimate_start(16, kHour), 3 * kHour);
  // A 1-node probe still can't fit earlier (16-node jobs hold everything).
  EXPECT_EQ(h.sched.estimate_start(1, kHour), 3 * kHour);
}

TEST(Reservation, BlocksJobsDuringWindow) {
  Harness h;
  const ReservationId r =
      h.sched.reserve(kHour, kHour, 16);  // [1h,2h) everything
  ASSERT_TRUE(r.valid());
  // A 2-hour full-machine job cannot start now (would overlap), nor at 1h;
  // earliest is 2h.
  h.sched.submit(simple_job(16, 2 * kHour));
  h.engine.run();
  ASSERT_EQ(h.finished.size(), 1u);
  EXPECT_EQ(h.finished[0].start_time, 2 * kHour);
}

TEST(Reservation, ConflictingReservationRejected) {
  Harness h;
  ASSERT_TRUE(h.sched.reserve(kHour, kHour, 10).valid());
  EXPECT_FALSE(h.sched.reserve(kHour, kHour, 10).valid());   // 20 > 16
  EXPECT_TRUE(h.sched.reserve(kHour, kHour, 6).valid());     // fits
}

TEST(Reservation, AttachedJobStartsAtWindow) {
  Harness h;
  const ReservationId r = h.sched.reserve(2 * kHour, kHour, 8);
  ASSERT_TRUE(r.valid());
  const JobId id = h.sched.attach_to_reservation(r, simple_job(8, kHour));
  EXPECT_TRUE(id.valid());
  h.engine.run();
  ASSERT_EQ(h.finished.size(), 1u);
  EXPECT_EQ(h.finished[0].start_time, 2 * kHour);
  EXPECT_EQ(h.finished[0].end_time, 3 * kHour);
  EXPECT_EQ(h.sched.free_nodes(), 16);
}

TEST(Reservation, EarlyJobEndReleasesReservation) {
  Harness h;
  const ReservationId r = h.sched.reserve(0, 4 * kHour, 16);
  const JobId id =
      h.sched.attach_to_reservation(r, simple_job(16, kHour, 4 * kHour));
  ASSERT_TRUE(id.valid());
  // Queued job should start when the attached job ends at 1h, not at 4h.
  h.sched.submit(simple_job(16, kHour));
  h.engine.run();
  ASSERT_EQ(h.finished.size(), 2u);
  EXPECT_EQ(h.finished[1].start_time, kHour);
}

TEST(Reservation, AttachValidation) {
  Harness h;
  const ReservationId r = h.sched.reserve(kHour, kHour, 4);
  EXPECT_THROW(h.sched.attach_to_reservation(r, simple_job(8, kHour)),
               PreconditionError);  // wider than reservation
  EXPECT_THROW(h.sched.attach_to_reservation(r, simple_job(4, 2 * kHour)),
               PreconditionError);  // longer than window
  EXPECT_THROW(h.sched.attach_to_reservation(ReservationId{999},
                                             simple_job(1, kHour)),
               PreconditionError);
  const JobId ok = h.sched.attach_to_reservation(r, simple_job(4, kHour));
  EXPECT_TRUE(ok.valid());
  EXPECT_THROW(h.sched.attach_to_reservation(r, simple_job(1, kHour)),
               PreconditionError);  // already attached
}

TEST(Reservation, CancelBeforeStart) {
  Harness h;
  const ReservationId r = h.sched.reserve(kHour, kHour, 16);
  const JobId id = h.sched.attach_to_reservation(r, simple_job(16, kHour));
  ASSERT_TRUE(id.valid());
  EXPECT_TRUE(h.sched.cancel_reservation(r));
  EXPECT_FALSE(h.sched.cancel_reservation(r));
  h.engine.run();
  // The attached job was cancelled along with the reservation.
  ASSERT_EQ(h.finished.size(), 1u);
  EXPECT_EQ(h.finished[0].state, JobState::kCancelled);
  EXPECT_EQ(h.sched.free_nodes(), 16);
}

TEST(Drain, JobsNeverCrossFence) {
  SchedulerConfig cfg;
  cfg.policy = SchedPolicy::kEasyBackfill;
  cfg.drain_period = 6 * kHour;
  Harness h(cfg);
  // Submitted at t=0 with 4h walltime: fits before the 6h fence.
  h.sched.submit(simple_job(8, 4 * kHour));
  // 8h walltime job cannot fit between fences 6h apart... it would never
  // run; use 5h: must start at a fence boundary (6h) because starting at
  // 0..1h would cross the 6h fence only if start > 1h. At t=0 it fits.
  h.sched.submit(simple_job(8, 5 * kHour));
  h.engine.run();
  for (const Job& j : h.finished) {
    // No fence (multiple of drain_period) strictly inside (start, end).
    for (SimTime f = cfg.drain_period; f < j.end_time;
         f += cfg.drain_period) {
      EXPECT_FALSE(j.start_time < f && f < j.end_time)
          << "job crossed fence at " << f;
    }
  }
  ASSERT_EQ(h.finished.size(), 2u);
  EXPECT_EQ(h.finished[0].start_time, 0);
  EXPECT_EQ(h.finished[1].start_time, 0);  // both fit before 6h fence
}

TEST(Drain, CapabilityJobGetsPriorityAfterFence) {
  SchedulerConfig cfg;
  cfg.policy = SchedPolicy::kEasyBackfill;
  cfg.drain_period = 6 * kHour;
  Harness h(cfg);
  // Fill the machine until 5h.
  h.sched.submit(simple_job(16, 5 * kHour));
  // Queue a small job (submitted first) and then a capability job.
  h.sched.submit(simple_job(2, 2 * kHour));
  h.sched.submit(simple_job(16, 2 * kHour));
  h.engine.run();
  std::map<int, SimTime> start_by_width;
  std::map<int, SimTime> end_by_width;
  for (const Job& j : h.finished) {
    if (j.req.nodes == 16 && j.start_time == 0) continue;  // filler
    start_by_width[j.req.nodes] = j.start_time;
  }
  // The capability job starts at the 6h fence; the small job cannot start
  // at 5h (would cross the fence with 2h runtime? 5h+2h=7h crosses 6h) so
  // it also waits, but the capability job goes first.
  EXPECT_EQ(start_by_width[16], 6 * kHour);
  EXPECT_GE(start_by_width[2], 8 * kHour);
}

TEST(Drain, CapabilityThresholdRoundsHalfTheMachineUp) {
  // On 5 nodes a capability job takes at least 3 (half, rounded up): after
  // the fence the 3-node job jumps the two 2-node jobs queued before it,
  // and the 2-node jobs keep their FIFO order.
  SchedulerConfig cfg;
  cfg.policy = SchedPolicy::kEasyBackfill;
  cfg.drain_period = 6 * kHour;
  Harness h(cfg, 5);
  h.sched.submit(simple_job(5, 5 * kHour));  // filler until 5h
  // 2h jobs cannot start at 5h without crossing the 6h fence.
  const JobId small_a = h.sched.submit(simple_job(2, 2 * kHour));
  const JobId small_b = h.sched.submit(simple_job(2, 2 * kHour));
  const JobId capability = h.sched.submit(simple_job(3, 2 * kHour));
  h.engine.run();
  std::map<JobId, SimTime> start;
  for (const Job& j : h.finished) start[j.id] = j.start_time;
  EXPECT_EQ(start.at(capability), 6 * kHour);
  EXPECT_EQ(start.at(small_a), 6 * kHour);
  EXPECT_EQ(start.at(small_b), 8 * kHour);
}

TEST(Drain, UtilizationLossVsNoDrain) {
  // Sanity: the same workload delivers identical core-seconds with and
  // without drains, but takes longer with drains.
  const auto run_one = [](Duration drain) {
    SchedulerConfig cfg;
    cfg.policy = SchedPolicy::kEasyBackfill;
    cfg.drain_period = drain;
    Harness h(cfg);
    for (int i = 0; i < 20; ++i) {
      h.sched.submit(simple_job(8, 5 * kHour));
    }
    h.engine.run();
    return h.engine.now();
  };
  const SimTime no_drain = run_one(0);
  const SimTime with_drain = run_one(6 * kHour);
  EXPECT_GT(with_drain, no_drain);
}

TEST(SchedulerPool, BuildsOnePerComputeResource) {
  Engine e;
  const Platform p = mini_platform();
  SchedulerPool pool(e, p);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.at(p.compute()[0].id).resource().name, "ClusterA");
  EXPECT_THROW((void)pool.at(ResourceId{99}), PreconditionError);
  int ends = 0;
  pool.add_on_end_all([&](const Job&) { ++ends; });
  JobRequest req = simple_job(1, kHour);
  pool.at(p.compute()[0].id).submit(req);
  pool.at(p.compute()[1].id).submit(req);
  e.run();
  EXPECT_EQ(ends, 2);
}

TEST(SchedulerPool, ResourceIdsInPlatformOrder) {
  Engine e;
  const Platform p = teragrid_2010();
  SchedulerPool pool(e, p);
  const auto ids = pool.resource_ids();
  ASSERT_EQ(ids.size(), p.compute().size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i].value(), static_cast<ResourceId::rep>(i));
  }
}

// Conservation property: node-seconds delivered never exceed capacity, and
// free_nodes returns to full after the queue drains, across policies.
class PolicySweep : public ::testing::TestWithParam<SchedPolicy> {};

TEST_P(PolicySweep, NodeAccountingConserved) {
  SchedulerConfig cfg;
  cfg.policy = GetParam();
  Harness h(cfg);
  Rng rng(99);
  for (int i = 0; i < 120; ++i) {
    JobRequest req = simple_job(
        static_cast<int>(rng.uniform_int(1, 16)),
        rng.uniform_int(10 * kMinute, 6 * kHour));
    req.requested_walltime = static_cast<Duration>(
        static_cast<double>(req.actual_runtime) * rng.uniform(1.0, 2.5));
    if (rng.bernoulli(0.1)) {
      req.fails = true;
      req.fail_after = req.actual_runtime / 2;
    }
    h.engine.schedule_at(rng.uniform_int(0, 24 * kHour),
                         [&h, req] { h.sched.submit(req); });
  }
  h.engine.run();
  EXPECT_EQ(h.finished.size(), 120u);
  EXPECT_EQ(h.sched.free_nodes(), 16);
  EXPECT_EQ(h.sched.queue_length(), 0u);
  EXPECT_EQ(h.sched.running_jobs(), 0u);
  // Utilization over the makespan cannot exceed 1.
  EXPECT_LE(h.sched.metrics().utilization(h.res.total_cores(),
                                          h.engine.now()),
            1.0 + 1e-9);
  // Every job started no earlier than submitted and ended after starting.
  for (const Job& j : h.finished) {
    EXPECT_GE(j.start_time, j.submit_time);
    EXPECT_GT(j.end_time, j.start_time);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, PolicySweep,
                         ::testing::Values(SchedPolicy::kFcfs,
                                           SchedPolicy::kEasyBackfill,
                                           SchedPolicy::kConservativeBackfill));

// --- job-id folding contract: resource band width and overflow guards.

TEST(SchedulerJobIds, DocumentsIdSpaceContract) {
  // Ids are (resource.id + 1) << kJobIdResourceShift plus a counter, so two
  // schedulers never hand out the same JobId until a resource exceeds
  // kMaxResourceId or a scheduler issues kMaxJobsPerResource jobs.
  Engine engine;
  ComputeResource a = test_resource();
  a.id = ResourceId{0};
  ComputeResource b = test_resource();
  b.id = ResourceId{1};
  ResourceScheduler sa(engine, a);
  ResourceScheduler sb(engine, b);
  const JobId ja = sa.submit(simple_job(1, kHour));
  const JobId jb = sb.submit(simple_job(1, kHour));
  EXPECT_NE(ja, jb);
  EXPECT_EQ(ja.value() >> kJobIdResourceShift, 1);
  EXPECT_EQ(jb.value() >> kJobIdResourceShift, 2);
  engine.run();
}

TEST(SchedulerJobIds, RejectsResourceIdOutsideFoldingRange) {
  Engine engine;
  ComputeResource r = test_resource();
  r.id = ResourceId{kMaxResourceId};
  EXPECT_NO_THROW(ResourceScheduler(engine, r));
  // One past the documented limit: the band would overflow the sign bit of
  // JobId::rep and silently collide; construction must refuse instead.
  r.id = ResourceId{kMaxResourceId + 1};
  EXPECT_THROW(ResourceScheduler(engine, r), PreconditionError);
  r.id = ResourceId{};  // invalid (negative) id
  EXPECT_THROW(ResourceScheduler(engine, r), PreconditionError);
}

// --- drain fences: planning fidelity beyond any materialization horizon.

TEST(SchedulerDrain, FencesHoldArbitrarilyFarOut) {
  // Regression: fences used to be materialized only 120 days out, so a
  // backlog deep enough to push planned starts past that horizon let jobs
  // straddle a drain fence. With analytic periodic fences the planner
  // honours them at any depth. 70 nearly-window-filling jobs reach ~140
  // days; every one must start on its own fence boundary.
  const Duration period = 2 * kDay;
  SchedulerConfig cfg;
  cfg.drain_period = period;
  Harness h(cfg);
  for (int i = 0; i < 70; ++i) {
    h.sched.submit(simple_job(16, 47 * kHour));
  }
  h.engine.run();
  ASSERT_EQ(h.started.size(), 70u);
  for (const Job& j : h.started) {
    const SimTime next_fence = (j.start_time / period + 1) * period;
    EXPECT_LE(j.start_time + 47 * kHour, next_fence)
        << "job " << j.id << " starting at " << j.start_time
        << " runs across the fence at " << next_fence;
  }
  EXPECT_GT(h.started.back().start_time, 120 * kDay);  // past the old horizon
}

TEST(SchedulerDrain, RejectsJobsLongerThanTheDrainPeriod) {
  // Such a job straddles a fence wherever it starts; it used to be accepted
  // and then stuck (or worse, started across a fence past the old horizon).
  SchedulerConfig cfg;
  cfg.drain_period = kDay;
  Harness h(cfg);
  EXPECT_THROW(h.sched.submit(simple_job(1, 25 * kHour)), PreconditionError);
  EXPECT_NO_THROW(h.sched.submit(simple_job(1, 24 * kHour)));
  h.engine.run();
}

TEST(SchedulerDrain, EstimateHonoursFencesBeyondOldHorizon) {
  const Duration period = 2 * kDay;
  SchedulerConfig cfg;
  cfg.policy = SchedPolicy::kConservativeBackfill;
  cfg.drain_period = period;
  cfg.backfill_depth = 1 << 20;
  Harness h(cfg);
  for (int i = 0; i < 70; ++i) {
    h.sched.submit(simple_job(16, 47 * kHour));
  }
  // A full-width probe lands after the whole backlog, ~140 days out, and
  // must still sit on a fence boundary rather than straddle one.
  const SimTime est = h.sched.estimate_start(16, 47 * kHour);
  EXPECT_GT(est, 120 * kDay);
  EXPECT_LE(est + 47 * kHour, (est / period + 1) * period);
}

// --- wakeup hygiene: a steady backlog must not churn the wakeup event.

TEST(SchedulerWakeup, SteadyBacklogDoesNotChurnWakeupEvents) {
  // One job holds the whole machine until t = 10h; every submission while
  // it runs re-evaluates the head fit, which lands on the same tick each
  // time. The pass must keep the armed wakeup instead of cancel+reschedule
  // per submission (the seed burned two heap operations per event on this).
  Harness h;
  h.sched.submit(simple_job(16, 10 * kHour));
  for (int i = 0; i < 50; ++i) {
    h.engine.schedule_at(static_cast<SimTime>(i) * kMinute,
                         [&] { h.sched.submit(simple_job(16, kHour)); },
                         EventPriority::kSubmission);
  }
  h.engine.run();
  EXPECT_EQ(h.finished.size(), 51u);
  EXPECT_EQ(h.engine.stats().cancelled.value(), 0u);
}

// --- replan accounting: the obs counters distinguish full/incremental.

TEST(SchedulerPlanCache, CountsIncrementalAndCoalescedReplans) {
  SchedulerConfig cfg;
  cfg.policy = SchedPolicy::kConservativeBackfill;
  Harness h(cfg);
  h.sched.submit(simple_job(16, 4 * kHour));
  // Same-tick burst: ten submissions at one timestamp coalesce into a
  // single deferred pass (nine absorbed requests), and each submission
  // extends the live plan instead of forcing a from-scratch replan.
  h.engine.schedule_at(kHour, [&] {
    for (int i = 0; i < 10; ++i) h.sched.submit(simple_job(8, kHour));
  });
  h.engine.run();
  const SchedulerMetrics& m = h.sched.metrics();
  EXPECT_GE(m.replans_incremental(), 9u);
  EXPECT_GE(m.replans_coalesced(), 9u);
  EXPECT_GT(m.replans_full(), 0u);  // the initial build
  EXPECT_EQ(h.finished.size(), 11u);
}

TEST(SchedulerPassWork, ScanIsProportionalToDecisions) {
  // A saturated EASY machine with a deep backlog: each pass walks the
  // started run, the head and at most backfill_depth further live entries.
  // Entries marked by a start or a cancel are walked once more at most —
  // the pass that walks them drops them — so the entries examined stay
  // within passes x (depth + 1) plus a constant per start and cancel, no
  // matter how deep the backlog or how many jobs have left it.
  SchedulerConfig cfg;
  cfg.backfill_depth = 8;
  Harness h(cfg, 64);
  Rng rng(7);
  std::vector<JobId> submitted;
  std::size_t cancelled = 0;
  for (int i = 0; i < 3000; ++i) {
    JobRequest req = simple_job(static_cast<int>(rng.uniform_int(1, 64)),
                                rng.uniform_int(kMinute, 6 * kHour));
    req.requested_walltime = req.actual_runtime + rng.uniform_int(0, kHour);
    const SimTime at = rng.uniform_int(0, 20 * kDay);
    h.engine.schedule_at(
        at, [&, req] { submitted.push_back(h.sched.submit(req)); },
        EventPriority::kSubmission);
    if (i % 10 == 0) {
      const std::uint64_t pick = rng.uniform_int(0, 1 << 20);
      h.engine.schedule_at(at + kHour, [&, pick] {
        if (!submitted.empty() &&
            h.sched.cancel(submitted[pick % submitted.size()])) {
          ++cancelled;
        }
      });
    }
  }
  std::size_t peak_queue = 0;
  h.sched.add_on_start([&](const Job&) {
    peak_queue = std::max(peak_queue, h.sched.queue_length());
  });
  h.engine.run();

  const std::uint64_t started = h.started.size();
  ASSERT_EQ(started + cancelled, 3000u);
  // The scenario is what the bound is about: a deep backlog and many
  // backfilled starts (a job started ahead of an earlier submission).
  EXPECT_GT(peak_queue, 500u);
  std::size_t backfilled = 0;
  for (std::size_t i = 1; i < h.started.size(); ++i) {
    backfilled += h.started[i].id.value() < h.started[i - 1].id.value();
  }
  EXPECT_GT(backfilled, 300u);
  EXPECT_EQ(h.sched.queue_length(), 0u);
#ifndef TGSIM_DISABLE_METRICS
  // -DTGSIM_DISABLE_METRICS compiles these work counters out (they read
  // 0), so the bound is checked only where they count.
  const SchedulerMetrics& m = h.sched.metrics();
  EXPECT_GT(m.passes(), 0u);
  EXPECT_GE(m.fit_checks(), started);
  EXPECT_LE(m.queue_scanned(),
            m.passes() * static_cast<std::uint64_t>(cfg.backfill_depth + 1) +
                2 * started + cancelled);
#endif
}

TEST(SchedulerPassWork, CountersExportPerResource) {
  Harness h;
  h.sched.submit(simple_job(16, kHour));
  h.sched.submit(simple_job(8, kHour));
  h.engine.run();
  obs::MetricsRegistry registry;
  h.sched.metrics().bind_metrics(registry, "sched.test");
  for (const char* name : {"sched.test.passes", "sched.test.queue_scanned",
                           "sched.test.fit_checks"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
#ifndef TGSIM_DISABLE_METRICS  // the pass counter compiles out there
  // Two synchronous submit passes; at 1 h the head's wakeup and the
  // deferred pass after the first end; at 2 h the pass after the second.
  EXPECT_EQ(h.sched.metrics().passes(), 5u);
#endif
}

}  // namespace
}  // namespace tg
