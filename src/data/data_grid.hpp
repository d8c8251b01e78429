// The data grid: replica catalog + per-site storage caches + the stage-in
// model.
//
// Construction seeds one dataset pool per archetype that carries an enabled
// DataAccessSpec (sizes from a bounded Pareto, replicas on distinct random
// sites) on a dedicated "data" RNG substream — traffic and fault randomness
// are never perturbed, and a scenario with no enabled spec forks nothing
// and draws nothing (zero-rate discipline).
//
// At campaign time the workload generator draws a DataAccessProfile from
// the job's archetype pool; at submission time stage_in() resolves the
// profile against the destination site's cache. Cache hits and datasets
// already replicated on the destination site are served locally; remaining
// datasets are grouped by their nearest replica site and staged over the
// WAN as real FlowManager transfers (they land in the accounting stream as
// TransferRecords). The job is submitted only when the last transfer
// completes, so stage-in latency feeds job wait exactly as the paper's
// data-intensive users experienced it.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "data/access_profile.hpp"
#include "data/replica_catalog.hpp"
#include "data/storage_cache.hpp"
#include "des/engine.hpp"
#include "infra/platform.hpp"
#include "net/flow.hpp"
#include "obs/metrics.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"

namespace tg {

class DataGrid {
 public:
  /// `archetype_data[i]` is archetype i's DataAccessSpec (disabled entries
  /// build no pool).
  DataGrid(Engine& engine, const Platform& platform, FlowManager& flows,
           const DataGridConfig& config,
           std::vector<DataAccessSpec> archetype_data, Rng rng);

  /// True when archetype `a` has an enabled spec (and therefore a pool).
  [[nodiscard]] bool has_pool(std::size_t archetype) const;

  /// Draws one job's input set from archetype `a`'s pool: dataset count
  /// uniform in [datasets_min, datasets_max], picks Zipf-skewed by
  /// popularity, duplicates collapsed. Requires has_pool(a).
  [[nodiscard]] DataAccessProfile draw_profile(std::size_t archetype,
                                               Rng& rng) const;

  /// Resolves `profile` at the site of `target` and hands the job's data
  /// fields to `done` — synchronously when everything is local, otherwise
  /// after the last stage-in transfer lands. Missed datasets are admitted
  /// to the site cache on arrival.
  void stage_in(ResourceId target, UserId user, ProjectId project,
                DataAccessProfile profile,
                std::function<void(const StageInResult&)> done);

  [[nodiscard]] const ReplicaCatalog& catalog() const { return catalog_; }
  [[nodiscard]] const StorageCache& cache(SiteId site) const {
    return caches_[static_cast<std::size_t>(site.value())];
  }
  /// Cache counters summed over every site.
  [[nodiscard]] CacheStats total_cache_stats() const;
  /// Stage-in aggregates (deterministic sim-stream counters).
  struct Stats {
    std::uint64_t stage_ins = 0;       ///< stage_in() calls
    std::uint64_t local_stage_ins = 0; ///< resolved without any WAN transfer
    std::uint64_t transfers = 0;       ///< WAN transfers started
    double bytes_read = 0.0;
    double bytes_from_cache = 0.0;
    double bytes_transferred = 0.0;
    Duration stage_in_total = 0;  ///< summed stage-in latency
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Binds "data.*" counters. The registry must not outlive this grid.
  void bind_metrics(obs::MetricsRegistry& registry) const;

 private:
  struct Pool {
    std::vector<DatasetId> datasets;  ///< rank order: [0] is hottest
    std::unique_ptr<Zipf> pick;
    int datasets_min = 1;
    int datasets_max = 1;
  };
  /// One in-flight stage-in joining its transfer group completions.
  struct PendingStageIn {
    int remaining = 0;
    SimTime started = 0;
    SiteId dst;
    StageInResult result;
    std::vector<DatasetId> to_admit;
    std::function<void(const StageInResult&)> done;
  };

  void finish_stage_in(const std::shared_ptr<PendingStageIn>& pending);

  Engine& engine_;
  const Platform& platform_;
  FlowManager& flows_;
  ReplicaCatalog catalog_;
  std::vector<StorageCache> caches_;  ///< dense by SiteId
  std::vector<Pool> pools_;           ///< dense by archetype index
  Stats stats_;
};

}  // namespace tg
