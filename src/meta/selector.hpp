// Resource selection: "where should this job go?"
//
// Models the TeraGrid resource-selection advisors that ranked machines by
// predicted time-to-start. The selector asks each candidate scheduler for a
// queue-aware start estimate and picks the earliest expected completion.
#pragma once

#include <vector>

#include "sched/pool.hpp"
#include "util/ids.hpp"

namespace tg {

class ResourceSelector {
 public:
  /// Picks from `candidates` (or from every compute resource when empty)
  /// the machine with the earliest estimated start for a (nodes, walltime)
  /// job. Visualization systems are never selected for batch work, and
  /// machines too small for the job are skipped. Ties break toward
  /// the lower resource id, which keeps runs deterministic. Machines whose
  /// in-service node count (after outages) cannot hold the job are avoided
  /// unless no eligible machine is available at all.
  [[nodiscard]] ResourceId select(
      const SchedulerPool& pool, int nodes, Duration walltime,
      const std::vector<ResourceId>& candidates = {}) const;

  /// Estimated start for the given job on every candidate, in candidate
  /// order (used by experiments to reproduce advisor tables).
  [[nodiscard]] std::vector<SimTime> estimates(
      const SchedulerPool& pool, int nodes, Duration walltime,
      const std::vector<ResourceId>& candidates) const;

 private:
  [[nodiscard]] static bool eligible(const ComputeResource& res, int nodes,
                                     Duration walltime);
};

}  // namespace tg
