#include "meta/selector.hpp"

#include <limits>

#include "util/error.hpp"

namespace tg {

bool ResourceSelector::eligible(const ComputeResource& res, int nodes,
                                Duration walltime) {
  return nodes <= res.nodes && walltime <= res.max_walltime &&
         !res.interactive_viz;
}

ResourceId ResourceSelector::select(
    const SchedulerPool& pool, int nodes, Duration walltime,
    const std::vector<ResourceId>& candidates) const {
  const std::vector<ResourceId> all =
      candidates.empty() ? pool.resource_ids() : candidates;
  ResourceId best;
  SimTime best_start = std::numeric_limits<SimTime>::max();
  // Machines too degraded by an outage to ever hold the job are skipped;
  // if *every* eligible machine is that degraded, fall back to ignoring
  // availability (the job queues and waits for repair).
  for (const bool honour_outages : {true, false}) {
    for (ResourceId id : all) {
      const ResourceScheduler& sched = pool.at(id);
      if (!eligible(sched.resource(), nodes, walltime)) continue;
      if (honour_outages && sched.available_nodes() < nodes) continue;
      const SimTime est = sched.estimate_start(nodes, walltime);
      if (est >= 0 && est < best_start) {
        best_start = est;
        best = id;
        // An immediate start cannot be beaten — ties keep the earliest
        // candidate — so skip the remaining probes (each one is a planner
        // query on that machine).
        if (est <= sched.now()) break;
      }
    }
    if (best.valid()) break;
  }
  TG_REQUIRE(best.valid(),
             "no eligible resource for a " << nodes << "-node job");
  return best;
}

std::vector<SimTime> ResourceSelector::estimates(
    const SchedulerPool& pool, int nodes, Duration walltime,
    const std::vector<ResourceId>& candidates) const {
  std::vector<SimTime> out;
  out.reserve(candidates.size());
  for (ResourceId id : candidates) {
    const ResourceScheduler& sched = pool.at(id);
    out.push_back(eligible(sched.resource(), nodes, walltime)
                      ? sched.estimate_start(nodes, walltime)
                      : -1);
  }
  return out;
}

}  // namespace tg
