#include "data/data_grid.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace tg {

DataGrid::DataGrid(Engine& engine, const Platform& platform,
                   FlowManager& flows, const DataGridConfig& config,
                   std::vector<DataAccessSpec> archetype_data, Rng rng)
    : engine_(engine), platform_(platform), flows_(flows) {
  const auto nsites = platform.sites().size();
  TG_REQUIRE(nsites > 0, "data grid needs at least one site");
  caches_.reserve(nsites);
  for (std::size_t s = 0; s < nsites; ++s) {
    caches_.emplace_back(config.site_cache_bytes, config.policy);
  }
  // Pools are built in archetype order so the "data" substream's draw
  // sequence is a pure function of the registry — independent of sharding,
  // worker counts and flow timing.
  pools_.resize(archetype_data.size());
  for (std::size_t a = 0; a < archetype_data.size(); ++a) {
    const DataAccessSpec& spec = archetype_data[a];
    if (!spec.enabled) continue;
    TG_REQUIRE(spec.pool_datasets > 0, "enabled spec needs a dataset pool");
    TG_REQUIRE(spec.datasets_min >= 1 &&
                   spec.datasets_max >= spec.datasets_min,
               "invalid datasets-per-job range");
    Pool& pool = pools_[a];
    pool.datasets_min = spec.datasets_min;
    pool.datasets_max = spec.datasets_max;
    const BoundedPareto size_dist(spec.bytes_alpha, spec.bytes_min,
                                  spec.bytes_max);
    const int replicas =
        std::min<int>(std::max(1, spec.replicas), static_cast<int>(nsites));
    pool.datasets.reserve(static_cast<std::size_t>(spec.pool_datasets));
    for (int d = 0; d < spec.pool_datasets; ++d) {
      const DatasetId id = catalog_.add(
          std::string("a").append(std::to_string(a)).append("-ds-").append(
              std::to_string(d)),
          size_dist.sample(rng));
      pool.datasets.push_back(id);
      // Distinct replica sites, first-draw order.
      for (int r = 0; r < replicas; ++r) {
        SiteId site{static_cast<SiteId::rep>(
            rng.uniform_int(0, static_cast<std::int64_t>(nsites) - 1))};
        while (std::find(catalog_.replicas(id).begin(),
                         catalog_.replicas(id).end(),
                         site) != catalog_.replicas(id).end()) {
          site = SiteId{static_cast<SiteId::rep>(
              (site.value() + 1) % static_cast<SiteId::rep>(nsites))};
        }
        catalog_.add_replica(id, site);
      }
    }
    pool.pick = std::make_unique<Zipf>(
        static_cast<std::size_t>(spec.pool_datasets), spec.zipf_s);
  }
}

bool DataGrid::has_pool(std::size_t archetype) const {
  return archetype < pools_.size() && pools_[archetype].pick != nullptr;
}

DataAccessProfile DataGrid::draw_profile(std::size_t archetype,
                                         Rng& rng) const {
  TG_REQUIRE(has_pool(archetype),
             "archetype " << archetype << " has no dataset pool");
  const Pool& pool = pools_[archetype];
  const int n = static_cast<int>(
      rng.uniform_int(pool.datasets_min, pool.datasets_max));
  DataAccessProfile profile;
  profile.datasets.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Zipf rank 1 = hottest dataset = pool index 0.
    const DatasetId id = pool.datasets[pool.pick->sample(rng) - 1];
    if (std::find(profile.datasets.begin(), profile.datasets.end(), id) !=
        profile.datasets.end()) {
      continue;  // duplicates collapse; the draw still consumed randomness
    }
    profile.datasets.push_back(id);
    profile.total_bytes += catalog_.bytes(id);
  }
  return profile;
}

void DataGrid::stage_in(ResourceId target, UserId user, ProjectId project,
                        DataAccessProfile profile,
                        std::function<void(const StageInResult&)> done) {
  TG_REQUIRE(done != nullptr, "stage_in needs a completion callback");
  const SiteId dst = platform_.compute_at(target).site;
  StorageCache& cache = caches_[static_cast<std::size_t>(dst.value())];

  auto pending = std::make_shared<PendingStageIn>();
  pending->started = engine_.now();
  pending->dst = dst;
  pending->done = std::move(done);
  pending->result.bytes_read = profile.total_bytes;

  // Transfer groups: missed bytes bucketed by nearest replica site, in
  // first-miss order.
  std::vector<std::pair<SiteId, double>> groups;
  for (const DatasetId d : profile.datasets) {
    const double bytes = catalog_.bytes(d);
    const auto& replicas = catalog_.replicas(d);
    TG_CHECK(!replicas.empty(), "dataset " << d << " has no replica");
    // A replica on the destination site is site-local storage: served
    // without touching the cache tier or the WAN.
    if (std::find(replicas.begin(), replicas.end(), dst) != replicas.end()) {
      continue;
    }
    if (cache.lookup(d, bytes)) {
      pending->result.bytes_from_cache += bytes;
      continue;
    }
    // Nearest source by path latency (lowest site id on ties).
    SiteId src = replicas.front();
    Duration best = flows_.path_latency(src, dst);
    for (std::size_t i = 1; i < replicas.size(); ++i) {
      const Duration lat = flows_.path_latency(replicas[i], dst);
      if (lat < best || (lat == best && replicas[i] < src)) {
        best = lat;
        src = replicas[i];
      }
    }
    auto group = std::find_if(groups.begin(), groups.end(),
                              [src](const auto& g) { return g.first == src; });
    if (group == groups.end()) {
      groups.emplace_back(src, bytes);
    } else {
      group->second += bytes;
    }
    pending->to_admit.push_back(d);
  }

  ++stats_.stage_ins;
  stats_.bytes_read += pending->result.bytes_read;
  stats_.bytes_from_cache += pending->result.bytes_from_cache;

  if (groups.empty()) {
    ++stats_.local_stage_ins;
    pending->result.stage_in = 0;
    pending->done(pending->result);
    return;
  }

  pending->remaining = static_cast<int>(groups.size());
  for (const auto& [src, bytes] : groups) {
    stats_.bytes_transferred += bytes;
    ++stats_.transfers;
    flows_.start_transfer(src, dst, bytes, user, project,
                          [this, pending](const Flow&) {
                            if (--pending->remaining == 0) {
                              finish_stage_in(pending);
                            }
                          });
  }
}

void DataGrid::finish_stage_in(const std::shared_ptr<PendingStageIn>& pending) {
  StorageCache& cache =
      caches_[static_cast<std::size_t>(pending->dst.value())];
  for (const DatasetId d : pending->to_admit) {
    cache.admit(d, catalog_.bytes(d));
  }
  pending->result.stage_in = engine_.now() - pending->started;
  stats_.stage_in_total += pending->result.stage_in;
  pending->done(pending->result);
}

CacheStats DataGrid::total_cache_stats() const {
  CacheStats total;
  for (const StorageCache& c : caches_) total += c.stats();
  return total;
}

void DataGrid::bind_metrics(obs::MetricsRegistry& registry) const {
  const CacheStats cache = total_cache_stats();
  registry.counter("data.cache.hits").set(cache.hits);
  registry.counter("data.cache.misses").set(cache.misses);
  registry.counter("data.cache.insertions").set(cache.insertions);
  registry.counter("data.cache.evictions").set(cache.evictions);
  registry.counter("data.cache.rejected").set(cache.rejected);
  registry.gauge("data.cache.bytes_hit").set(cache.bytes_hit);
  registry.gauge("data.cache.bytes_missed").set(cache.bytes_missed);
  registry.gauge("data.cache.bytes_evicted").set(cache.bytes_evicted);
  registry.counter("data.stage_ins").set(stats_.stage_ins);
  registry.counter("data.stage_ins_local").set(stats_.local_stage_ins);
  registry.counter("data.transfers").set(stats_.transfers);
  registry.gauge("data.bytes_read").set(stats_.bytes_read);
  registry.gauge("data.bytes_from_cache").set(stats_.bytes_from_cache);
  registry.gauge("data.bytes_transferred").set(stats_.bytes_transferred);
  registry.gauge("data.stage_in_total_s")
      .set(to_seconds(stats_.stage_in_total));
  registry.counter("data.datasets").set(catalog_.size());
}

}  // namespace tg
