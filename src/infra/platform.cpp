#include "infra/platform.hpp"

#include "util/error.hpp"

namespace tg {

SiteId Platform::add_site(std::string name) {
  const SiteId id{static_cast<SiteId::rep>(sites_.size())};
  sites_.push_back(Site{id, std::move(name)});
  return id;
}

ResourceId Platform::add_compute(ComputeResource spec) {
  TG_REQUIRE(spec.nodes > 0 && spec.cores_per_node > 0,
             "compute resource " << spec.name << " needs nodes and cores");
  TG_REQUIRE(spec.site.valid() &&
                 static_cast<std::size_t>(spec.site.value()) < sites_.size(),
             "compute resource " << spec.name << " references unknown site");
  const ResourceId id{static_cast<ResourceId::rep>(compute_.size())};
  spec.id = id;
  compute_.push_back(std::move(spec));
  return id;
}

ResourceId Platform::add_storage(StorageResource spec) {
  TG_REQUIRE(spec.site.valid() &&
                 static_cast<std::size_t>(spec.site.value()) < sites_.size(),
             "storage resource " << spec.name << " references unknown site");
  // Storage ids live in a namespace above compute ids so a single
  // ResourceId can name either; see is_compute().
  const ResourceId id{static_cast<ResourceId::rep>(kStorageIdBase +
                                                   storage_.size())};
  spec.id = id;
  storage_.push_back(std::move(spec));
  return id;
}

LinkId Platform::add_link(SiteId a, SiteId b, double gbps, Duration latency) {
  TG_REQUIRE(a != b, "link endpoints must differ");
  TG_REQUIRE(gbps > 0.0, "link bandwidth must be positive");
  const LinkId id{static_cast<LinkId::rep>(links_.size())};
  links_.push_back(Link{id, a, b, gbps, latency});
  return id;
}

const Site& Platform::site(SiteId id) const {
  TG_REQUIRE(id.valid() && static_cast<std::size_t>(id.value()) < sites_.size(),
             "unknown site " << id);
  return sites_[static_cast<std::size_t>(id.value())];
}

const ComputeResource& Platform::compute_at(ResourceId id) const {
  TG_REQUIRE(is_compute(id), "resource " << id << " is not compute");
  return compute_[static_cast<std::size_t>(id.value())];
}

const StorageResource& Platform::storage_at(ResourceId id) const {
  const auto idx = static_cast<std::size_t>(id.value()) - kStorageIdBase;
  TG_REQUIRE(id.value() >= static_cast<ResourceId::rep>(kStorageIdBase) &&
                 idx < storage_.size(),
             "resource " << id << " is not storage");
  return storage_[idx];
}

const Link& Platform::link(LinkId id) const {
  TG_REQUIRE(id.valid() && static_cast<std::size_t>(id.value()) < links_.size(),
             "unknown link " << id);
  return links_[static_cast<std::size_t>(id.value())];
}

const ComputeResource& Platform::compute_by_name(const std::string& name) const {
  for (const auto& r : compute_) {
    if (r.name == name) return r;
  }
  TG_REQUIRE(false, "no compute resource named " << name);
  // Unreachable; TG_REQUIRE throws.
  return compute_.front();
}

bool Platform::is_compute(ResourceId id) const {
  return id.valid() &&
         static_cast<std::size_t>(id.value()) < compute_.size();
}

long Platform::total_cores() const {
  long total = 0;
  for (const auto& r : compute_) total += r.total_cores();
  return total;
}

Platform teragrid_2010() {
  Platform p;
  // Resource-provider sites. The hub models the Chicago/StarLight exchange.
  const SiteId hub = p.add_site("Chicago-Hub");
  const SiteId ncsa = p.add_site("NCSA");
  const SiteId sdsc = p.add_site("SDSC");
  const SiteId tacc = p.add_site("TACC");
  const SiteId psc = p.add_site("PSC");
  const SiteId nics = p.add_site("NICS");
  const SiteId iu = p.add_site("Indiana");
  const SiteId purdue = p.add_site("Purdue");
  const SiteId anl = p.add_site("ANL");
  const SiteId ornl = p.add_site("ORNL");
  const SiteId loni = p.add_site("LONI");

  // Compute systems at ~1/8 production node counts. charge_factor mirrors
  // the TeraGrid NU normalization (faster cores charge more NUs/core-hour).
  const auto mk = [](SiteId site, const char* name, int nodes, int cpn,
                     double charge, Duration maxwt, bool viz = false) {
    ComputeResource r;
    r.site = site;
    r.name = name;
    r.nodes = nodes;
    r.cores_per_node = cpn;
    r.charge_factor = charge;
    r.max_walltime = maxwt;
    r.interactive_viz = viz;
    return r;
  };
  p.add_compute(mk(nics, "Kraken", 1032, 12, 1.00, 24 * kHour));
  p.add_compute(mk(tacc, "Ranger", 492, 16, 0.85, 48 * kHour));
  p.add_compute(mk(tacc, "Lonestar", 160, 8, 0.90, 48 * kHour));
  p.add_compute(mk(ncsa, "Abe", 150, 8, 0.80, 48 * kHour));
  p.add_compute(mk(ncsa, "Lincoln", 24, 8, 1.20, 24 * kHour));
  p.add_compute(mk(sdsc, "Trestles", 40, 32, 0.95, 48 * kHour));
  p.add_compute(mk(sdsc, "Dash", 8, 16, 1.10, 24 * kHour));
  p.add_compute(mk(psc, "Pople", 96, 16, 0.75, 96 * kHour));
  p.add_compute(mk(purdue, "Steele", 112, 8, 0.70, 72 * kHour));
  p.add_compute(mk(iu, "BigRed", 96, 8, 0.70, 48 * kHour));
  p.add_compute(mk(loni, "QueenBee", 84, 8, 0.80, 48 * kHour));
  // Viz-capable systems (Longhorn at TACC, Nautilus at NICS).
  p.add_compute(mk(tacc, "Longhorn", 32, 8, 1.00, 12 * kHour, /*viz=*/true));
  p.add_compute(mk(nics, "Nautilus", 16, 16, 1.00, 12 * kHour, /*viz=*/true));

  // Storage systems.
  StorageResource s;
  s.site = iu;
  s.name = "DataCapacitor";
  s.capacity_tb = 350;
  s.bandwidth_gbps = 10;
  p.add_storage(s);
  s.site = sdsc;
  s.name = "HPSS-SDSC";
  s.capacity_tb = 2000;
  s.bandwidth_gbps = 5;
  p.add_storage(s);
  s.site = ncsa;
  s.name = "MSS-NCSA";
  s.capacity_tb = 3000;
  s.bandwidth_gbps = 5;
  p.add_storage(s);
  s.site = ornl;
  s.name = "HPSS-ORNL";
  s.capacity_tb = 2500;
  s.bandwidth_gbps = 5;
  p.add_storage(s);

  // Hub-and-spoke 10-Gb/s backbone; TACC and NCSA multi-homed at 2x10G.
  for (const SiteId spoke : {ncsa, sdsc, tacc, psc, nics, iu, purdue, anl,
                             ornl, loni}) {
    p.add_link(hub, spoke, 10.0, 25 * kMillisecond);
  }
  p.add_link(hub, tacc, 10.0, 25 * kMillisecond);  // second lambda
  p.add_link(hub, ncsa, 10.0, 10 * kMillisecond);  // second lambda
  return p;
}

Platform mini_platform() {
  Platform p;
  const SiteId a = p.add_site("SiteA");
  const SiteId b = p.add_site("SiteB");
  ComputeResource c;
  c.site = a;
  c.name = "ClusterA";
  c.nodes = 16;
  c.cores_per_node = 8;
  c.charge_factor = 1.0;
  c.max_walltime = 24 * kHour;
  p.add_compute(c);
  c.site = b;
  c.name = "ClusterB";
  c.nodes = 8;
  c.cores_per_node = 8;
  c.charge_factor = 0.8;
  p.add_compute(c);
  StorageResource s;
  s.site = b;
  s.name = "StoreB";
  s.capacity_tb = 100;
  p.add_storage(s);
  p.add_link(a, b, 10.0, 20 * kMillisecond);
  return p;
}

std::uint32_t partition_count(const Platform& platform) {
  return static_cast<std::uint32_t>(1 + platform.sites().size());
}

std::uint32_t site_partition(SiteId site) {
  TG_REQUIRE(site.valid(), "site partition of an invalid site");
  return static_cast<std::uint32_t>(1 + site.value());
}

}  // namespace tg
