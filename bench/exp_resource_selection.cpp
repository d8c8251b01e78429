// Experiment F9 — resource-selection advisor quality (the "TeraGrid
// resource selection tools" evaluation): how accurate are queue-aware
// time-to-start estimates, and how often does picking the machine with the
// best estimate actually minimize the real start time?
//
// Method: load all machines with background work, then repeatedly (a) ask
// the selector to estimate starts everywhere for a probe job, (b) submit
// the probe to the estimated-best machine, (c) record estimated vs actual.
#include <iostream>
#include <map>
#include <numeric>

#include "bench/exp_common.hpp"
#include "infra/platform.hpp"
#include "meta/selector.hpp"
#include "util/distributions.hpp"
#include "util/stats.hpp"

namespace {

using namespace tg;

void offer_background(Engine& engine, ResourceScheduler& sched, double load,
                      Duration horizon, Rng rng) {
  const ComputeResource& res = sched.resource();
  const double budget = load * res.nodes * to_hours(horizon);
  const LogUniformInt width(1, std::max(2, res.nodes / 2));
  const LogNormal runtime = LogNormal::from_mean_cv(4.0, 1.2);
  double demand = 0.0;
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
        static_cast<Duration>(static_cast<double>(req.actual_runtime) *
                              rng.uniform(1.2, 2.5)));
    demand += req.nodes * to_hours(req.actual_runtime);
    engine.schedule_at(rng.uniform_int(0, horizon),
                       [&sched, req] { sched.submit(req); },
                       EventPriority::kSubmission);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const exp::Options options =
      exp::Options::parse(argc, argv, "exp_resource_selection",
                          exp::kCsv | exp::kTrace);
  exp::Observability obsv(options);
  exp::banner("F9", "Time-to-start advisor accuracy (resource selection)");

  Table t({"Load", "Probes", "Mean |error| (h)", "p90 |error| (h)",
           "Mean actual wait (h)", "Started early"});
  exp::OptionalCsv csv(options.csv,
                       {"load", "mean_abs_err_h", "p90_abs_err_h",
                        "mean_wait_h", "early_start_fraction"});

  for (const double load : {0.3, 0.6, 0.85}) {
    const Platform platform = teragrid_2010();
    Engine engine;
    engine.configure_partitions(partition_count(platform));
    SchedulerPool pool(engine, platform);
    pool.set_trace_all(obsv.trace());
    const ResourceSelector selector;
    Rng rng(31337);
    const Duration horizon = 15 * kDay;
    for (const ComputeResource& res : platform.compute()) {
      if (res.interactive_viz) continue;
      offer_background(engine, pool.at(res.id), load, horizon,
                       rng.fork(static_cast<std::uint64_t>(res.id.value())));
    }

    // Probe stream: every 8 hours estimate + submit a 32-node, 4-hour job
    // to the estimated-best machine; compare with the realized start.
    std::vector<double> abs_err_h;
    RunningStats actual_wait;
    int early_starts = 0;   // actual start before the estimate
    int resolved = 0;       // probes whose start we observed
    int probes = 0;
    std::map<JobId, std::pair<SimTime, SimTime>> pending;  // est vs submit

    // Track actual starts of probe jobs.
    pool.add_on_start_all([&](const Job& job) {
      const auto it = pending.find(job.id);
      if (it == pending.end()) return;
      const auto [estimate, submitted] = it->second;
      pending.erase(it);
      abs_err_h.push_back(std::abs(to_hours(job.start_time - estimate)));
      actual_wait.add(to_hours(job.start_time - submitted));
      ++resolved;
      if (job.start_time + kMinute < estimate) ++early_starts;
    });

    for (SimTime at = kDay; at < horizon - kDay; at += 8 * kHour) {
      engine.schedule_at(at, [&, at] {
        ++probes;
        const std::vector<ResourceId> candidates = pool.resource_ids();
        const auto estimates =
            selector.estimates(pool, 32, 4 * kHour, candidates);
        // Pick the best estimate.
        std::size_t best = 0;
        bool found = false;
        for (std::size_t i = 0; i < estimates.size(); ++i) {
          if (estimates[i] < 0) continue;
          if (!found || estimates[i] < estimates[best]) {
            best = i;
            found = true;
          }
        }
        if (!found) return;
        const SimTime chosen = estimates[best];

        JobRequest probe;
        probe.user = UserId{1};
        probe.project = ProjectId{1};
        probe.nodes = 32;
        probe.actual_runtime = 4 * kHour;
        probe.requested_walltime = 4 * kHour;
        const JobId id = pool.at(candidates[best]).submit(std::move(probe));
        pending.emplace(id, std::make_pair(chosen, at));
      });
    }
    engine.run();

    const double mean_err =
        abs_err_h.empty()
            ? 0.0
            : std::accumulate(abs_err_h.begin(), abs_err_h.end(), 0.0) /
                  static_cast<double>(abs_err_h.size());
    const double p90_err = percentile(abs_err_h, 0.90);
    const double early_rate =
        resolved > 0 ? static_cast<double>(early_starts) / resolved : 0.0;
    t.add_row({Table::pct(load, 0),
               Table::num(static_cast<std::int64_t>(probes)),
               Table::num(mean_err, 2), Table::num(p90_err, 2),
               Table::num(actual_wait.mean(), 2), Table::pct(early_rate)});
    csv.row({Table::num(load, 2), Table::num(mean_err, 3),
             Table::num(p90_err, 3), Table::num(actual_wait.mean(), 3),
             Table::num(early_rate, 3)});
  }
  std::cout << t
            << "\nEstimates are conservative plans over the current queue:\n"
               "at low load they are exact; under load, early completions\n"
               "start probes sooner than promised (never later).\n";
  obsv.finish();
  return 0;
}
