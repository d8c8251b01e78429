#include "sched/pool.hpp"

#include "util/error.hpp"

namespace tg {

SchedulerPool::SchedulerPool(Engine& engine, const Platform& platform,
                             SchedulerConfig config)
    : platform_(platform) {
  const bool by_site = engine.partitions() == partition_count(platform);
  TG_REQUIRE(by_site || engine.partitions() == 1,
             "engine has " << engine.partitions()
                           << " partitions; a scheduler pool needs 1 or "
                           << partition_count(platform));
  schedulers_.reserve(platform.compute().size());
  for (const ComputeResource& r : platform.compute()) {
    const std::uint32_t shard = by_site ? site_partition(r.site) : 0;
    schedulers_.push_back(
        std::make_unique<ResourceScheduler>(engine, r, config, shard));
  }
}

ResourceScheduler& SchedulerPool::at(ResourceId id) {
  TG_REQUIRE(platform_.is_compute(id), "no scheduler for resource " << id);
  return *schedulers_[static_cast<std::size_t>(id.value())];
}

const ResourceScheduler& SchedulerPool::at(ResourceId id) const {
  TG_REQUIRE(platform_.is_compute(id), "no scheduler for resource " << id);
  return *schedulers_[static_cast<std::size_t>(id.value())];
}

void SchedulerPool::add_on_end_all(ResourceScheduler::JobCallback cb) {
  for (auto& s : schedulers_) s->add_on_end(cb);
}

void SchedulerPool::add_on_start_all(ResourceScheduler::JobCallback cb) {
  for (auto& s : schedulers_) s->add_on_start(cb);
}

void SchedulerPool::set_trace_all(obs::TraceBuffer* trace) {
  for (auto& s : schedulers_) s->set_trace(trace);
}

void SchedulerPool::bind_metrics(obs::MetricsRegistry& registry) const {
  for (const auto& s : schedulers_) {
    s->metrics().bind_metrics(registry, "sched." + s->resource().name);
  }
}

std::vector<ResourceId> SchedulerPool::resource_ids() const {
  std::vector<ResourceId> ids;
  ids.reserve(schedulers_.size());
  for (const auto& s : schedulers_) ids.push_back(s->resource().id);
  return ids;
}

}  // namespace tg
