// Example: running hero jobs on a Kraken-like machine with and without
// weekly drains.
//
// Demonstrates: direct use of ResourceScheduler with a drain policy, the
// capability-priority queue, reservations via the co-allocator, and the
// scheduler metrics API. This is the operational story behind the
// "capability runs" modality: full-machine jobs and ordinary capacity work
// sharing one scheduler.
//
// Run: ./build/examples/capability_drain
#include <iostream>

#include "sched/scheduler.hpp"
#include "util/distributions.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace tg;

namespace {

struct Outcome {
  double utilization;
  double capability_wait_h;
  double capacity_wait_h;
};

Outcome run(Duration drain_period) {
  ComputeResource kraken;
  kraken.id = ResourceId{0};
  kraken.site = SiteId{0};
  kraken.name = "Kraken";
  kraken.nodes = 1032;
  kraken.cores_per_node = 12;
  kraken.max_walltime = 24 * kHour;

  Engine engine;
  SchedulerConfig config;
  config.policy = SchedPolicy::kEasyBackfill;
  config.drain_period = drain_period;
  ResourceScheduler sched(engine, kraken, config);

  RunningStats capability_wait;
  RunningStats capacity_wait;
  sched.add_on_end([&](const Job& j) {
    if (j.state == JobState::kCancelled) return;
    (j.req.nodes >= kraken.nodes / 2 ? capability_wait : capacity_wait)
        .add(to_hours(j.wait()));
  });

  Rng rng(2024);
  const LogUniformInt width(1, 256);
  const LogNormal runtime = LogNormal::from_mean_cv(5.0, 1.0);
  const Duration horizon = 21 * kDay;

  // Capacity background at ~85% load with sloppy walltime requests.
  double demand = 0.0;
  while (demand < 0.85 * kraken.nodes * to_hours(horizon)) {
    JobRequest req;
    req.user = UserId{0};
    req.project = ProjectId{0};
    req.nodes = static_cast<int>(width.sample(rng));
    req.actual_runtime = std::clamp<Duration>(
        static_cast<Duration>(runtime.sample(rng) * kHour), 30 * kMinute,
        kraken.max_walltime);
    req.requested_walltime = std::min<Duration>(
        kraken.max_walltime,
        static_cast<Duration>(static_cast<double>(req.actual_runtime) *
                              rng.uniform(1.5, 3.0)));
    demand += req.nodes * to_hours(req.actual_runtime);
    engine.schedule_at(rng.uniform_int(0, horizon),
                       [&sched, req] { sched.submit(req); },
                       EventPriority::kSubmission);
  }
  // Two hero jobs a week: full machine, 6 hours.
  for (SimTime at = 2 * kDay; at < horizon; at += kWeek / 2) {
    JobRequest hero;
    hero.user = UserId{1};
    hero.project = ProjectId{1};
    hero.nodes = kraken.nodes;
    hero.actual_runtime = 6 * kHour;
    hero.requested_walltime = 8 * kHour;
    engine.schedule_at(at, [&sched, hero] { sched.submit(hero); },
                       EventPriority::kSubmission);
  }
  engine.run();

  return Outcome{sched.metrics().utilization(kraken.total_cores(),
                                             engine.now()),
                 capability_wait.mean(), capacity_wait.mean()};
}

}  // namespace

int main() {
  std::cout << "Kraken-like machine, 85% capacity load + 2 full-machine "
               "hero jobs per week, 3 weeks\n\n";
  Table t({"Policy", "Utilization", "Hero wait (h)", "Capacity wait (h)"});
  const Outcome no_drain = run(0);
  const Outcome weekly = run(kWeek);
  t.add_row({"EASY, no drains", Table::pct(no_drain.utilization),
             Table::num(no_drain.capability_wait_h, 1),
             Table::num(no_drain.capacity_wait_h, 1)});
  t.add_row({"EASY + weekly drain", Table::pct(weekly.utilization),
             Table::num(weekly.capability_wait_h, 1),
             Table::num(weekly.capacity_wait_h, 1)});
  std::cout << t
            << "\nThe weekly clearing gives full-machine jobs a periodic\n"
               "guaranteed start at a modest cost to everyone else — the\n"
               "policy NICS adopted for Kraken.\n";
  return 0;
}
