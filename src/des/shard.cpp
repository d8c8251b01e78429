#include "des/shard.hpp"

#include "util/error.hpp"

namespace tg {

std::uint32_t ShardPlan::partition_of_site(std::size_t site_index) const {
  TG_REQUIRE(site_index < site_partition.size(),
             "site " << site_index << " outside the shard plan ("
                     << site_partition.size() << " sites)");
  return site_partition[site_index];
}

ShardPlan plan_shards(std::size_t sites) {
  ShardPlan plan;
  plan.partitions = static_cast<std::uint32_t>(1 + sites);
  plan.site_partition.resize(sites);
  for (std::size_t i = 0; i < sites; ++i) {
    plan.site_partition[i] = static_cast<std::uint32_t>(1 + i);
  }
  return plan;
}

}  // namespace tg
