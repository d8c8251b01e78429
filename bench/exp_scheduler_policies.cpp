// Experiment F5 — substrate validation: utilization, wait and slowdown of
// the scheduling policies (FCFS, EASY backfill, conservative backfill, and
// EASY with weekly full-machine drains) on a single 1,024-node machine
// under two offered loads. The drain row reproduces the Kraken result:
// capability jobs start dramatically sooner at a modest utilization cost.
#include <iostream>

#include <map>

#include "bench/exp_common.hpp"
#include "sched/scheduler.hpp"
#include "util/distributions.hpp"
#include "util/stats.hpp"

namespace {

using namespace tg;

struct StreamJob {
  SimTime at;
  JobRequest req;
};

/// One reproducible 30-day job stream at the given offered load.
std::vector<StreamJob> make_stream(const ComputeResource& res, double load,
                                   std::uint64_t seed) {
  Rng rng(seed);
  const LogUniformInt width(1, res.nodes);
  const LogNormal runtime = LogNormal::from_mean_cv(4.0, 1.2);
  const Duration horizon = 30 * kDay;
  // Sample jobs until their summed node-hours hit the offered-load budget,
  // then spread arrivals uniformly over the horizon — this pins the
  // offered load exactly instead of relying on a mean-demand estimate.
  const double budget_node_hours = load * res.nodes * to_hours(horizon);
  double demand = 0.0;

  // A Zipf-skewed population of 32 users: a few heavy submitters, a long
  // tail of light ones — the texture fair-share exists for.
  const Zipf user_pick(32, 1.2);
  std::vector<StreamJob> jobs;
  while (demand < budget_node_hours) {
    StreamJob j;
    j.at = static_cast<SimTime>(rng.uniform_int(0, horizon - 1));
    j.req.user = UserId{static_cast<UserId::rep>(user_pick.sample(rng) - 1)};
    j.req.project = ProjectId{0};
    j.req.nodes = static_cast<int>(
        snap_to_power_of_two(width.sample(rng), 0.7, rng));
    j.req.nodes = std::min(j.req.nodes, res.nodes);
    j.req.actual_runtime = std::max<Duration>(
        5 * kMinute, static_cast<Duration>(runtime.sample(rng) * kHour));
    j.req.actual_runtime = std::min<Duration>(j.req.actual_runtime,
                                              res.max_walltime);
    j.req.requested_walltime = std::min<Duration>(
        res.max_walltime,
        static_cast<Duration>(static_cast<double>(j.req.actual_runtime) *
                              rng.uniform(1.2, 3.0)));
    demand += j.req.nodes * to_hours(j.req.actual_runtime);
    jobs.push_back(std::move(j));
  }
  std::sort(jobs.begin(), jobs.end(),
            [](const StreamJob& a, const StreamJob& b) { return a.at < b.at; });
  return jobs;
}

struct PolicyResult {
  double utilization = 0.0;
  double makespan_days = 0.0;
  double mean_wait_h = 0.0;
  double p90_slowdown = 0.0;
  double capability_wait_h = 0.0;
  /// Mean bounded slowdown among *light* users (below-median job counts):
  /// the population fair-share exists to protect from heavy submitters.
  double light_user_slowdown = 0.0;
  std::size_t jobs = 0;
};

PolicyResult run_policy(const SchedulerConfig& cfg, double load) {
  ComputeResource res;
  res.id = ResourceId{0};
  res.site = SiteId{0};
  res.name = "bigiron";
  res.nodes = 1024;
  res.cores_per_node = 8;
  res.max_walltime = 24 * kHour;

  Engine engine;
  // One hand-built machine at one site: the coordinator plus that site's
  // partition, which keeps the canonical event order uniform with the
  // multi-site binaries.
  engine.configure_partitions(1 + site_partition(res.site));
  ResourceScheduler sched(engine, res, cfg, site_partition(res.site));
  std::vector<double> slowdowns;
  RunningStats wait;
  RunningStats capability_wait;
  std::map<UserId, RunningStats> per_user_slowdown;
  sched.add_on_end([&](const Job& j) {
    if (j.state == JobState::kCancelled) return;
    wait.add(to_hours(j.wait()));
    slowdowns.push_back(j.bounded_slowdown());
    per_user_slowdown[j.req.user].add(j.bounded_slowdown());
    if (j.req.nodes >= res.nodes / 2) {
      capability_wait.add(to_hours(j.wait()));
    }
  });

  const auto stream = make_stream(res, load, 7777);
  for (const StreamJob& j : stream) {
    engine.schedule_at(j.at, [&sched, req = j.req] { sched.submit(req); },
                       EventPriority::kSubmission);
  }
  engine.run();

  PolicyResult out;
  // Utilization over the full makespan: a policy that packs worse takes
  // longer to drain the same work, which is exactly the utilization loss.
  out.utilization =
      sched.metrics().utilization(res.total_cores(), engine.now());
  out.makespan_days = to_days(engine.now());
  out.mean_wait_h = wait.mean();
  out.p90_slowdown = percentile(std::move(slowdowns), 0.90);
  out.capability_wait_h = capability_wait.mean();
  // Light users = below-median job count.
  std::vector<std::size_t> counts;
  for (const auto& [user, stats] : per_user_slowdown) {
    counts.push_back(stats.count());
  }
  std::sort(counts.begin(), counts.end());
  const std::size_t median = counts.empty() ? 0 : counts[counts.size() / 2];
  RunningStats light;
  for (const auto& [user, stats] : per_user_slowdown) {
    if (stats.count() <= median) light.merge(stats);
  }
  out.light_user_slowdown = light.mean();
  out.jobs = stream.size();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const exp::Options options =
      exp::Options::parse(argc, argv, "exp_scheduler_policies", exp::kCsv);
  exp::Observability obsv(options);
  exp::banner("F5",
              "Scheduling policies on a 1,024-node machine (30-day stream)");

  struct Row {
    const char* name;
    SchedulerConfig cfg;
  };
  std::vector<Row> rows;
  rows.push_back({"FCFS", {SchedPolicy::kFcfs, 0, 128}});
  rows.push_back({"EASY", {SchedPolicy::kEasyBackfill, 0, 128}});
  rows.push_back(
      {"Conservative", {SchedPolicy::kConservativeBackfill, 0, 128}});
  rows.push_back(
      {"EASY + weekly drain", {SchedPolicy::kEasyBackfill, kWeek, 128}});
  SchedulerConfig fair;
  fair.policy = SchedPolicy::kEasyBackfill;
  fair.fair_share = true;
  rows.push_back({"EASY + fair-share", fair});

  Table t({"Load", "Policy", "Jobs", "Utilization", "Makespan (d)",
           "Mean wait (h)", "p90 slowdown", "Capability wait (h)",
           "Light-user sd"});
  exp::OptionalCsv csv(options.csv,
                       {"load", "policy", "jobs", "utilization",
                        "makespan_days", "mean_wait_h", "p90_slowdown",
                        "capability_wait_h", "light_user_slowdown"});
  for (const double load : {0.7, 0.9}) {
    for (const Row& row : rows) {
      const PolicyResult r = run_policy(row.cfg, load);
      t.add_row({Table::num(load, 1), row.name,
                 Table::num(static_cast<std::int64_t>(r.jobs)),
                 Table::pct(r.utilization), Table::num(r.makespan_days, 1),
                 Table::num(r.mean_wait_h, 2),
                 Table::num(r.p90_slowdown, 1),
                 Table::num(r.capability_wait_h, 2),
                 Table::num(r.light_user_slowdown, 1)});
      csv.row({Table::num(load, 2), row.name, std::to_string(r.jobs),
               Table::num(r.utilization, 4), Table::num(r.makespan_days, 2),
               Table::num(r.mean_wait_h, 3), Table::num(r.p90_slowdown, 2),
               Table::num(r.capability_wait_h, 3),
               Table::num(r.light_user_slowdown, 3)});
    }
    t.add_rule();
  }
  std::cout << t
            << "\nExpected shape: backfill beats FCFS on every metric; the\n"
               "weekly drain trades a little utilization for a large cut in\n"
               "capability-job wait; fair-share protects light users'\n"
               "service at heavy submitters' (and some packing) expense.\n";
  obsv.finish();
  return 0;
}
