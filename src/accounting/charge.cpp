#include "accounting/charge.hpp"

#include "util/error.hpp"

namespace tg {

Charge charge_for(const Job& job, const ComputeResource& res) {
  TG_REQUIRE(job.start_time >= 0 && job.end_time >= job.start_time,
             "charging a job that did not run");
  if (job.state == JobState::kRequeued ||
      job.state == JobState::kKilledByOutage) {
    return {};  // lost to an outage: time held is refunded
  }
  const double hours = to_hours(job.end_time - job.start_time);
  Charge c;
  c.su = hours * static_cast<double>(job.req.nodes) *
         static_cast<double>(res.cores_per_node);
  c.nu = c.su * res.charge_factor;
  return c;
}

}  // namespace tg
