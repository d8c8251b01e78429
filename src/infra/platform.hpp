// Static model of a federated cyberinfrastructure: sites, compute/viz
// resources, storage systems, and the WAN links between sites.
//
// The Platform is pure description — dynamics (queues, flows) live in
// tg::sched and tg::net. A preset reproducing the 2010-era TeraGrid at
// reduced scale is provided by `teragrid_2010()`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "des/time.hpp"
#include "util/ids.hpp"

namespace tg {

struct Site {
  SiteId id;
  std::string name;
};

/// A space-shared parallel computer. `interactive_viz` marks resources that
/// support interactive/visualization sessions (e.g. TACC Longhorn/Spur).
struct ComputeResource {
  ResourceId id;
  SiteId site;
  std::string name;
  int nodes = 0;
  int cores_per_node = 0;
  /// Normalized-unit charge per core-hour (TeraGrid "NU" normalization).
  double charge_factor = 1.0;
  /// Site-enforced maximum requested walltime.
  Duration max_walltime = 48 * kHour;
  bool interactive_viz = false;

  [[nodiscard]] int total_cores() const { return nodes * cores_per_node; }
};

/// An archival or parallel-filesystem storage system.
struct StorageResource {
  ResourceId id;
  SiteId site;
  std::string name;
  double capacity_tb = 0.0;
  /// Local ingest/egress ceiling, independent of WAN links.
  double bandwidth_gbps = 10.0;
};

/// A WAN link between two sites (full duplex; capacity applies per
/// direction). The 2010 TeraGrid backbone was a 10-Gb/s hub-and-spoke
/// overlay with some sites multi-homed.
struct Link {
  LinkId id;
  SiteId a;
  SiteId b;
  double gbps = 10.0;
  Duration latency = 30 * kMillisecond;
};

/// Storage resources are numbered from this base so that one ResourceId
/// namespace covers both compute and storage.
inline constexpr std::size_t kStorageIdBase = 1'000'000;

class Platform {
 public:
  SiteId add_site(std::string name);
  ResourceId add_compute(ComputeResource spec);  ///< id/site fields of spec.id ignored
  ResourceId add_storage(StorageResource spec);
  LinkId add_link(SiteId a, SiteId b, double gbps,
                  Duration latency = 30 * kMillisecond);

  [[nodiscard]] const std::vector<Site>& sites() const { return sites_; }
  [[nodiscard]] const std::vector<ComputeResource>& compute() const {
    return compute_;
  }
  [[nodiscard]] const std::vector<StorageResource>& storage() const {
    return storage_;
  }
  [[nodiscard]] const std::vector<Link>& links() const { return links_; }

  [[nodiscard]] const Site& site(SiteId id) const;
  [[nodiscard]] const ComputeResource& compute_at(ResourceId id) const;
  [[nodiscard]] const StorageResource& storage_at(ResourceId id) const;
  [[nodiscard]] const Link& link(LinkId id) const;

  /// Looks a compute resource up by name; throws if absent.
  [[nodiscard]] const ComputeResource& compute_by_name(
      const std::string& name) const;

  /// True if `id` names a compute resource (vs storage).
  [[nodiscard]] bool is_compute(ResourceId id) const;

  /// Total cores across all compute resources.
  [[nodiscard]] long total_cores() const;

 private:
  std::vector<Site> sites_;
  std::vector<ComputeResource> compute_;
  std::vector<StorageResource> storage_;
  std::vector<Link> links_;
};

/// Builds a reduced-scale model of the 2010 TeraGrid: 11 resource-provider
/// sites, 12 compute systems (two of them viz-capable), 4 storage systems,
/// and a 10-Gb/s hub-and-spoke WAN (Chicago hub). Node counts are scaled to
/// ~1/8 of production so that year-long simulations stay fast; charge
/// factors preserve the relative NU normalization between machines.
[[nodiscard]] Platform teragrid_2010();

/// A 2-site / 2-resource micro platform used by unit tests and quickstart.
[[nodiscard]] Platform mini_platform();

// Engine partitions by topology (DESIGN.md §5.7): partition 0 is the
// coordinator, which owns every cross-site mechanism (traffic, gateway
// dispatch, WAN flows, faults, reporting); each site's scheduler events
// live on a partition of their own. The partition id is part of the
// canonical event order.

/// 1 (the coordinator) + one partition per site.
[[nodiscard]] std::uint32_t partition_count(const Platform& platform);

/// The partition of `site`'s scheduler events: 1 + site index.
[[nodiscard]] std::uint32_t site_partition(SiteId site);

}  // namespace tg
