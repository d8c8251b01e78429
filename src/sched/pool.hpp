// SchedulerPool: one ResourceScheduler per compute resource of a Platform.
// Middleware (gateways, workflow engines, metaschedulers) and accounting
// address schedulers through the pool.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "des/engine.hpp"
#include "infra/platform.hpp"
#include "sched/scheduler.hpp"

namespace tg {

class SchedulerPool {
 public:
  /// Builds a scheduler per compute resource, all with `config`. On an
  /// engine split into partition_count(platform) partitions each scheduler
  /// binds its events to site_partition(its site); on an unpartitioned
  /// engine every scheduler lives on partition 0. Any other partition
  /// count is rejected.
  SchedulerPool(Engine& engine, const Platform& platform,
                SchedulerConfig config = {});

  [[nodiscard]] ResourceScheduler& at(ResourceId id);
  [[nodiscard]] const ResourceScheduler& at(ResourceId id) const;
  [[nodiscard]] std::size_t size() const { return schedulers_.size(); }
  [[nodiscard]] const Platform& platform() const { return platform_; }

  /// Registers `cb` as an end-of-job observer on every scheduler.
  void add_on_end_all(ResourceScheduler::JobCallback cb);
  void add_on_start_all(ResourceScheduler::JobCallback cb);

  /// Attaches `trace` to every scheduler (nullptr detaches).
  void set_trace_all(obs::TraceBuffer* trace);

  /// Registers each scheduler's metrics with `registry` under
  /// "sched.<resource name>.".
  void bind_metrics(obs::MetricsRegistry& registry) const;

  /// All compute resource ids, in platform order.
  [[nodiscard]] std::vector<ResourceId> resource_ids() const;

 private:
  const Platform& platform_;
  std::vector<std::unique_ptr<ResourceScheduler>> schedulers_;
};

}  // namespace tg
