// Experiment F6 — the cost of tightly-coupled distributed computing: how
// much longer does a 2-site co-allocated run wait for its common window
// than an equivalent single-site job, as background load grows? This is
// the known co-scheduling penalty that kept the tightly-coupled modality
// small on the real TeraGrid.
#include <algorithm>
#include <iostream>

#include "bench/exp_common.hpp"
#include "infra/platform.hpp"
#include "meta/coalloc.hpp"
#include "util/distributions.hpp"
#include "util/stats.hpp"

namespace {

using namespace tg;

/// Keeps a machine at roughly `load` utilization with random batch jobs.
void offer_background(Engine& engine, ResourceScheduler& sched, double load,
                      Duration horizon, Rng rng) {
  const ComputeResource& res = sched.resource();
  const double budget = load * res.nodes * to_hours(horizon);
  const LogUniformInt width(1, std::max(2, res.nodes / 2));
  const LogNormal runtime = LogNormal::from_mean_cv(3.0, 1.0);
  double demand = 0.0;
  std::vector<std::pair<SimTime, JobRequest>> jobs;
  while (demand < budget) {
    JobRequest req;
    req.user = UserId{0};
    req.project = ProjectId{0};
    req.nodes = static_cast<int>(width.sample(rng));
    req.actual_runtime = std::clamp<Duration>(
        static_cast<Duration>(runtime.sample(rng) * kHour), 10 * kMinute,
        res.max_walltime);
    req.requested_walltime = std::min<Duration>(
        res.max_walltime,
        static_cast<Duration>(static_cast<double>(req.actual_runtime) * 1.5));
    demand += req.nodes * to_hours(req.actual_runtime);
    jobs.emplace_back(rng.uniform_int(0, horizon - 1), std::move(req));
  }
  for (auto& [at, req] : jobs) {
    engine.schedule_at(at, [&sched, r = std::move(req)] { sched.submit(r); },
                       EventPriority::kSubmission);
  }
}

struct LoadResult {
  double single_wait_h = 0.0;
  double coalloc_wait_h = 0.0;
  int probes = 0;
};

LoadResult run_load(double load) {
  const Platform platform = teragrid_2010();
  Engine engine;
  engine.configure_partitions(partition_count(platform));
  SchedulerPool pool(engine, platform);
  CoAllocator coalloc(engine, pool);
  const ResourceId a = platform.compute_by_name("Kraken").id;
  const ResourceId b = platform.compute_by_name("Ranger").id;
  const Duration horizon = 20 * kDay;

  Rng rng(4242);
  offer_background(engine, pool.at(a), load, horizon, rng.fork("bg.a"));
  offer_background(engine, pool.at(b), load, horizon, rng.fork("bg.b"));

  RunningStats single_wait;
  RunningStats coalloc_wait;
  int probes = 0;
  // A probe pair every 12 hours: one co-allocated 2-site request and one
  // single-site job of the same total size, submitted back to back.
  for (SimTime at = kDay; at < horizon - kDay; at += 12 * kHour) {
    engine.schedule_at(at, [&, at] {
      ++probes;
      CoAllocRequest req;
      req.user = UserId{1};
      req.project = ProjectId{1};
      req.walltime = 4 * kHour;
      req.actual_runtime = 4 * kHour;
      req.members = {{a, 32}, {b, 16}};
      const auto result = coalloc.co_allocate(req);
      if (result) coalloc_wait.add(to_hours(result->start - at));

      const SimTime est = pool.at(a).estimate_start(48, 4 * kHour);
      single_wait.add(to_hours(est - at));
    });
  }
  engine.run();

  LoadResult out;
  out.single_wait_h = single_wait.mean();
  out.coalloc_wait_h = coalloc_wait.mean();
  out.probes = probes;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const exp::Options options =
      exp::Options::parse(argc, argv, "exp_coallocation", exp::kCsv);
  exp::Observability obsv(options);
  exp::banner("F6", "Co-allocation wait penalty vs background load");
  Table t({"Background load", "Probes", "Single-site wait (h)",
           "Co-alloc wait (h)", "Penalty"});
  exp::OptionalCsv csv(options.csv,
                       {"load", "single_wait_h", "coalloc_wait_h",
                        "penalty_factor"});
  for (const double load : {0.2, 0.4, 0.6, 0.8}) {
    const LoadResult r = run_load(load);
    const double penalty =
        r.single_wait_h > 1e-6 ? r.coalloc_wait_h / r.single_wait_h : 0.0;
    t.add_row({Table::pct(load, 0),
               Table::num(static_cast<std::int64_t>(r.probes)),
               Table::num(r.single_wait_h, 2), Table::num(r.coalloc_wait_h, 2),
               penalty > 0 ? Table::num(penalty, 1) + "x" : "-"});
    csv.row({Table::num(load, 2), Table::num(r.single_wait_h, 3),
             Table::num(r.coalloc_wait_h, 3), Table::num(penalty, 2)});
  }
  std::cout << t
            << "\nExpected shape: the co-allocation wait is the max over\n"
               "member machines' waits, so the penalty grows with load.\n";
  obsv.finish();
  return 0;
}
