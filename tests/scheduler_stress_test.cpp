// Randomized stress tests for the scheduler: mixed submissions,
// cancellations, reservations (some with attached jobs), failure/kill
// injection and drain fences, across all policies. Invariants checked:
// node accounting never overcommits, every job reaches a terminal state,
// the machine returns to fully-free, and runs are deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <tuple>
#include <vector>

#include "sched/scheduler.hpp"
#include "util/rng.hpp"

namespace tg {
namespace {

struct StressParams {
  SchedPolicy policy;
  Duration drain_period;
  std::uint64_t seed;
};

// Names each instance by its fields: gtest's fallback prints the raw
// bytes, padding included, which differ from process to process.
void PrintTo(const StressParams& p, std::ostream* os) {
  *os << to_string(p.policy);
  if (p.drain_period > 0) *os << " drain=" << p.drain_period / kHour << "h";
  *os << " seed=" << p.seed;
}

class SchedulerStress : public ::testing::TestWithParam<StressParams> {};

TEST_P(SchedulerStress, InvariantsHoldUnderChurn) {
  const StressParams params = GetParam();
  ComputeResource res;
  res.id = ResourceId{0};
  res.site = SiteId{0};
  res.name = "stress";
  res.nodes = 64;
  res.cores_per_node = 8;
  res.max_walltime = 24 * kHour;

  Engine engine;
  SchedulerConfig cfg;
  cfg.policy = params.policy;
  cfg.drain_period = params.drain_period;
  ResourceScheduler sched(engine, res, cfg);

  // Track node usage from the observer's viewpoint.
  int nodes_in_use = 0;
  int max_in_use = 0;
  std::map<JobId, int> running_width;
  int started = 0;
  int ended = 0;
  sched.add_on_start([&](const Job& j) {
    ++started;
    nodes_in_use += j.req.nodes;
    max_in_use = std::max(max_in_use, nodes_in_use);
    ASSERT_LE(nodes_in_use, res.nodes) << "observer sees overcommit";
    running_width[j.id] = j.req.nodes;
    ASSERT_GE(j.start_time, j.submit_time);
  });
  sched.add_on_end([&](const Job& j) {
    ++ended;
    const auto it = running_width.find(j.id);
    if (it != running_width.end()) {  // ran (not cancelled while queued)
      nodes_in_use -= it->second;
      running_width.erase(it);
      ASSERT_GE(nodes_in_use, 0);
      ASSERT_GT(j.end_time, j.start_time);
    } else {
      ASSERT_EQ(j.state, JobState::kCancelled);
    }
  });

  Rng rng(params.seed);
  int submitted = 0;
  std::vector<JobId> cancellable;

  // 400 random actions over 20 days.
  for (int i = 0; i < 400; ++i) {
    const SimTime at = rng.uniform_int(0, 20 * kDay);
    const double dice = rng.uniform();
    if (dice < 0.75) {
      // Plain submission, sometimes failing / killed.
      JobRequest req;
      req.user = UserId{0};
      req.project = ProjectId{0};
      req.nodes = static_cast<int>(rng.uniform_int(1, 64));
      req.actual_runtime = rng.uniform_int(kMinute, 20 * kHour);
      req.requested_walltime = std::min<Duration>(
          res.max_walltime,
          std::max<Duration>(
              10 * kMinute,
              static_cast<Duration>(static_cast<double>(req.actual_runtime) *
                                    rng.uniform(0.6, 2.5))));
      if (rng.bernoulli(0.1)) {
        req.fails = true;
        req.fail_after = req.actual_runtime / 3;
      }
      ++submitted;
      engine.schedule_at(at, [&sched, &cancellable, req] {
        cancellable.push_back(sched.submit(req));
      });
    } else if (dice < 0.88) {
      // Reservation, possibly with an attached job.
      const bool attach = rng.bernoulli(0.5);
      const int nodes = static_cast<int>(rng.uniform_int(1, 32));
      const Duration dur = rng.uniform_int(kHour, 12 * kHour);
      const Duration lead = rng.uniform_int(0, 2 * kDay);
      const Duration attach_runtime = rng.uniform_int(kMinute, dur);
      const bool count_attached = attach;
      if (count_attached) ++submitted;
      engine.schedule_at(at, [&, nodes, dur, lead, attach, attach_runtime] {
        const ReservationId r =
            sched.reserve(engine.now() + lead, dur, nodes);
        if (!r.valid()) {
          if (attach) --submitted;  // never materialized
          return;
        }
        if (attach) {
          JobRequest req;
          req.user = UserId{1};
          req.project = ProjectId{0};
          req.nodes = nodes;
          req.actual_runtime = attach_runtime;
          req.requested_walltime = dur;
          sched.attach_to_reservation(r, std::move(req));
        }
      });
    } else {
      // Cancel a random queued job (may be running already: no-op).
      engine.schedule_at(at, [&sched, &cancellable, &rng] {
        if (cancellable.empty()) return;
        const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(cancellable.size()) - 1));
        sched.cancel(cancellable[pick]);
      });
    }
  }
  engine.run();

  // Terminal state: machine fully free, nothing queued or running, and
  // every materialized job reached a terminal callback.
  EXPECT_EQ(sched.free_nodes(), res.nodes);
  EXPECT_EQ(sched.queue_length(), 0u);
  EXPECT_EQ(sched.running_jobs(), 0u);
  EXPECT_EQ(nodes_in_use, 0);
  EXPECT_EQ(ended, submitted);
  EXPECT_GT(max_in_use, 0);
}

TEST_P(SchedulerStress, DeterministicAcrossRuns) {
  const StressParams params = GetParam();
  const auto run_once = [&]() -> std::pair<std::uint64_t, double> {
    ComputeResource res;
    res.id = ResourceId{0};
    res.site = SiteId{0};
    res.name = "det";
    res.nodes = 32;
    res.cores_per_node = 8;
    Engine engine;
    SchedulerConfig cfg;
    cfg.policy = params.policy;
    cfg.drain_period = params.drain_period;
    ResourceScheduler sched(engine, res, cfg);
    Rng rng(params.seed);
    double wait_sum = 0.0;
    sched.add_on_end(
        [&](const Job& j) { wait_sum += to_seconds(j.wait()); });
    for (int i = 0; i < 150; ++i) {
      JobRequest req;
      req.user = UserId{0};
      req.project = ProjectId{0};
      req.nodes = static_cast<int>(rng.uniform_int(1, 32));
      req.actual_runtime = rng.uniform_int(kMinute, 10 * kHour);
      req.requested_walltime = req.actual_runtime;
      engine.schedule_at(rng.uniform_int(0, 5 * kDay),
                         [&sched, req] { sched.submit(req); });
    }
    engine.run();
    return {engine.events_processed(), wait_sum};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, SchedulerStress,
    ::testing::Values(StressParams{SchedPolicy::kFcfs, 0, 1},
                      StressParams{SchedPolicy::kEasyBackfill, 0, 2},
                      StressParams{SchedPolicy::kConservativeBackfill, 0, 3},
                      StressParams{SchedPolicy::kEasyBackfill, 3 * kDay, 4},
                      StressParams{SchedPolicy::kEasyBackfill, 0, 5},
                      StressParams{SchedPolicy::kConservativeBackfill,
                                   2 * kDay, 6}));

// --- Plan-cache equivalence: the incremental planner must be outcome-
// identical to the from-scratch reference planner. Same randomized churn
// (submissions, cancels, outages with requeues, advisor probes and, in the
// reserving mixes, advance reservations) run twice — plan_cache on and
// off — and the full lifecycle + estimate log compared entry by entry.

struct EquivParams {
  SchedPolicy policy;
  Duration drain_period;
  bool faulty;
  std::uint64_t seed;
  /// Also places reservations, attaches a job to most of them and cancels
  /// some before they start. Only these mixes draw that branch, so the
  /// other mixes keep their action schedules.
  bool reserving = false;
};

void PrintTo(const EquivParams& p, std::ostream* os) {
  *os << to_string(p.policy);
  if (p.drain_period > 0) *os << " drain=" << p.drain_period / kHour << "h";
  if (p.faulty) *os << " faulty";
  if (p.reserving) *os << " reserving";
  *os << " seed=" << p.seed;
}

class PlanCacheEquivalence : public ::testing::TestWithParam<EquivParams> {};

TEST_P(PlanCacheEquivalence, MatchesReferencePlannerExactly) {
  const EquivParams params = GetParam();
  // (tag, id/nodes, state/start, end/estimate/reservation) — one entry per
  // job start, job end, advisor probe and reservation request, in
  // simulation order.
  using Record = std::tuple<int, std::int64_t, std::int64_t, std::int64_t>;

  const auto run_once = [&](bool cache) -> std::vector<Record> {
    ComputeResource res;
    res.id = ResourceId{0};
    res.site = SiteId{0};
    res.name = "equiv";
    res.nodes = 64;
    res.cores_per_node = 8;
    res.max_walltime = 24 * kHour;

    Engine engine;
    SchedulerConfig cfg;
    cfg.policy = params.policy;
    cfg.drain_period = params.drain_period;
    cfg.plan_cache = cache;
    ResourceScheduler sched(engine, res, cfg);

    std::vector<Record> log;
    sched.add_on_start([&](const Job& j) {
      log.emplace_back(0, j.id.value(), j.start_time, 0);
    });
    sched.add_on_end([&](const Job& j) {
      log.emplace_back(1, j.id.value(), static_cast<std::int64_t>(j.state),
                       j.end_time);
    });

    // All randomness is drawn here, before the run: the two runs see
    // byte-identical action schedules regardless of how their internal
    // replan events interleave.
    Rng rng(params.seed);
    std::vector<JobId> cancellable;
    const Duration wall_cap = params.drain_period > 0
                                  ? std::min(params.drain_period,
                                             res.max_walltime)
                                  : res.max_walltime;
    for (int i = 0; i < 300; ++i) {
      const SimTime at = rng.uniform_int(0, 15 * kDay);
      const double dice = rng.uniform();
      if (params.reserving && dice < 0.12) {
        const int nodes = static_cast<int>(rng.uniform_int(1, 32));
        const Duration lead = rng.uniform_int(kHour, 2 * kDay);
        const Duration length = rng.uniform_int(kHour, 12 * kHour);
        JobRequest req;
        req.user = UserId{0};
        req.project = ProjectId{0};
        req.nodes = static_cast<int>(rng.uniform_int(1, nodes));
        req.requested_walltime = length;
        req.actual_runtime = rng.uniform_int(kMinute, length);
        const bool attach = rng.bernoulli(0.8);
        const Duration cancel_after =
            rng.bernoulli(0.3) ? rng.uniform_int(0, lead - 1) : -1;
        engine.schedule_at(at, [&, nodes, lead, length, req, attach,
                                cancel_after] {
          const SimTime start = engine.now() + lead;
          const ReservationId id = sched.reserve(start, length, nodes);
          log.emplace_back(3, nodes, start, id.valid() ? id.value() : -1);
          if (!id.valid()) return;
          if (attach) {
            cancellable.push_back(sched.attach_to_reservation(id, req));
          }
          if (cancel_after >= 0) {
            engine.schedule_in(cancel_after,
                               [&sched, id] { sched.cancel_reservation(id); });
          }
        });
      } else if (dice < 0.60 || (dice >= 0.85 && !params.faulty)) {
        JobRequest req;
        req.user = UserId{0};
        req.project = ProjectId{0};
        req.nodes = static_cast<int>(rng.uniform_int(1, 64));
        req.actual_runtime = rng.uniform_int(kMinute, 20 * kHour);
        req.requested_walltime = std::min<Duration>(
            wall_cap,
            std::max<Duration>(
                10 * kMinute,
                static_cast<Duration>(static_cast<double>(req.actual_runtime) *
                                      rng.uniform(0.6, 2.5))));
        req.actual_runtime = std::min(req.actual_runtime,
                                      req.requested_walltime);
        // Mix in exact-walltime jobs: the completions that keep the cached
        // plan alive, the hot path the cache exists for.
        if (rng.bernoulli(0.3)) req.actual_runtime = req.requested_walltime;
        engine.schedule_at(at, [&sched, &cancellable, req] {
          cancellable.push_back(sched.submit(req));
        });
      } else if (dice < 0.70) {
        const std::uint64_t pick = rng.uniform_int(0, 1 << 20);
        engine.schedule_at(at, [&sched, &cancellable, pick] {
          if (cancellable.empty()) return;
          sched.cancel(cancellable[pick % cancellable.size()]);
        });
      } else if (dice < 0.85) {
        const int nodes = static_cast<int>(rng.uniform_int(1, 64));
        const Duration wall = rng.uniform_int(10 * kMinute, wall_cap);
        engine.schedule_at(at, [&sched, &log, nodes, wall] {
          log.emplace_back(2, nodes, wall,
                           sched.estimate_start(nodes, wall));
        });
      } else {
        const int nodes = static_cast<int>(rng.uniform_int(1, 48));
        const Duration down = rng.uniform_int(kHour, 12 * kHour);
        engine.schedule_at(at, [&sched, &engine, nodes, down] {
          const int taken = sched.begin_outage(nodes, engine.now() + down);
          if (taken > 0) {
            engine.schedule_in(down,
                               [&sched, taken] { sched.end_outage(taken); });
          }
        });
      }
    }
    engine.run();
    EXPECT_EQ(sched.queue_length(), 0u);
    EXPECT_EQ(sched.running_jobs(), 0u);
    EXPECT_EQ(sched.free_nodes(), res.nodes);  // no reservation left holding
    return log;
  };

  const std::vector<Record> incremental = run_once(true);
  const std::vector<Record> reference = run_once(false);
  ASSERT_EQ(incremental.size(), reference.size());
  for (std::size_t i = 0; i < incremental.size(); ++i) {
    ASSERT_EQ(incremental[i], reference[i]) << "first divergence at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, PlanCacheEquivalence,
    ::testing::Values(
        EquivParams{SchedPolicy::kConservativeBackfill, 0, false, 10},
        EquivParams{SchedPolicy::kConservativeBackfill, 0, true, 11},
        EquivParams{SchedPolicy::kEasyBackfill, 0, true, 12},
        EquivParams{SchedPolicy::kFcfs, 0, true, 13},
        EquivParams{SchedPolicy::kConservativeBackfill, 0, true, 14},
        EquivParams{SchedPolicy::kEasyBackfill, 2 * kDay, true, 15},
        EquivParams{SchedPolicy::kConservativeBackfill, 0, false, 16, true},
        EquivParams{SchedPolicy::kConservativeBackfill, 0, true, 17, true},
        EquivParams{SchedPolicy::kEasyBackfill, 0, false, 18, true},
        EquivParams{SchedPolicy::kEasyBackfill, 0, true, 19, true},
        EquivParams{SchedPolicy::kFcfs, 0, true, 20, true},
        EquivParams{SchedPolicy::kEasyBackfill, 2 * kDay, true, 21, true}));

}  // namespace
}  // namespace tg
