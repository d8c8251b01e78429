// Charging: converts finished jobs into service units (SUs, core-hours)
// and normalized units (NUs, cross-machine comparable).
#pragma once

#include "infra/platform.hpp"
#include "sched/job.hpp"

namespace tg {

struct Charge {
  double su = 0.0;  ///< core-hours of wall time actually held
  double nu = 0.0;  ///< su x machine normalization factor
};

/// TeraGrid-style charging: jobs are charged for the node-hours they held,
/// at the machine's normalization factor. Failed and killed jobs are
/// charged for the time actually used (sites differed here; we follow the
/// majority policy). Work lost to infrastructure outages (requeued attempts
/// and killed-by-outage jobs) is refunded, as TeraGrid sites did, so it
/// shows up in records with a zero charge.
[[nodiscard]] Charge charge_for(const Job& job, const ComputeResource& res);

}  // namespace tg
