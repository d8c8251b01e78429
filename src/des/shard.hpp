// The shard plan: how a platform's sites map onto engine partitions.
//
// Partition 0 is the coordinator — it owns every cross-site mechanism
// (traffic generation, gateway dispatch, WAN flow activation and rate
// recomputation, fault processes, reporting). Each site gets one partition
// of its own (1 + site index), holding that site's scheduler events. The
// plan is a pure function of the platform topology; the partition id it
// assigns is part of the canonical event order (DESIGN.md §5.7).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tg {

struct ShardPlan {
  /// The coordinator partition id.
  static constexpr std::uint32_t kCoordinator = 0;

  /// 1 (coordinator) + one partition per site.
  std::uint32_t partitions = 1;
  /// Site index (SiteId::value()) -> partition id.
  std::vector<std::uint32_t> site_partition;

  [[nodiscard]] std::uint32_t partition_of_site(std::size_t site_index) const;
};

/// Builds the plan from a site count (kept free of infra types so the
/// mapping is unit-testable on its own; `infra::make_shard_plan(Platform)`
/// adapts a real platform).
[[nodiscard]] ShardPlan plan_shards(std::size_t sites);

}  // namespace tg
