#include "sched/metrics.hpp"

#include <string>

namespace tg {

void SchedulerMetrics::record_finished(Duration wait, Duration runtime,
                                       int nodes, int cores,
                                       double bounded_slowdown, bool killed,
                                       bool failed) {
  finished_.inc();
  if (killed) killed_.inc();
  if (failed) failed_.inc();
  wait_.add(to_seconds(wait));
  slowdown_.add(bounded_slowdown);
  delivered_.add(to_seconds(runtime) * static_cast<double>(nodes) *
                 static_cast<double>(cores));
}

void SchedulerMetrics::record_preempted(double lost_core_seconds,
                                        bool killed) {
  preempted_.inc();
  if (killed) outage_killed_.inc();
  lost_.add(lost_core_seconds);
}

void SchedulerMetrics::record_outage(int nodes_taken) {
  outages_.inc();
  outage_nodes_.add(static_cast<std::uint64_t>(nodes_taken));
}

double SchedulerMetrics::utilization(int total_cores, SimTime horizon) const {
  if (horizon <= 0 || total_cores <= 0) return 0.0;
  return delivered_ /
         (static_cast<double>(total_cores) * to_seconds(horizon));
}

void SchedulerMetrics::bind_metrics(obs::MetricsRegistry& registry,
                                    std::string_view prefix) const {
  const std::string base(prefix);
  registry.bind_counter(base + ".jobs_finished", finished_);
  registry.bind_counter(base + ".jobs_killed", killed_);
  registry.bind_counter(base + ".jobs_failed", failed_);
  registry.bind_counter(base + ".jobs_preempted", preempted_);
  registry.bind_counter(base + ".jobs_killed_by_outage", outage_killed_);
  registry.bind_counter(base + ".outages", outages_);
  registry.bind_counter(base + ".outage_nodes_taken", outage_nodes_);
  registry.bind_counter(base + ".replan.full", replan_full_);
  registry.bind_counter(base + ".replan.incremental", replan_incremental_);
  registry.bind_counter(base + ".replan.coalesced", replan_coalesced_);
  registry.bind_counter(base + ".passes", passes_);
  registry.bind_counter(base + ".queue_scanned", queue_scanned_);
  registry.bind_counter(base + ".fit_checks", fit_checks_);
  registry.bind_gauge(base + ".delivered_core_seconds", delivered_);
  registry.bind_gauge(base + ".lost_core_seconds", lost_);
}

}  // namespace tg
