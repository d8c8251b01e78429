#include "workload/replay.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace tg {

ReplayStats replay_trace(Engine& engine, ResourceScheduler& scheduler,
                         const std::vector<SwfJob>& trace) {
  const ComputeResource& res = scheduler.resource();
  ReplayStats stats;
  for (const SwfJob& job : trace) {
    if (job.submit_seconds < 0) {
      ++stats.skipped;
      continue;
    }
    JobRequest req = to_request(job, res.cores_per_node);
    req.nodes = std::min(req.nodes, res.nodes);
    if (req.requested_walltime > res.max_walltime) {
      req.requested_walltime = res.max_walltime;
      req.actual_runtime = std::min(req.actual_runtime, res.max_walltime);
    }
    const SimTime at = job.submit_seconds * kSecond;
    engine.schedule_at(std::max(at, engine.now()),
                       [&scheduler, req = std::move(req)]() mutable {
                         scheduler.submit(std::move(req));
                       },
                       EventPriority::kSubmission);
    ++stats.submitted;
  }
  return stats;
}

}  // namespace tg
