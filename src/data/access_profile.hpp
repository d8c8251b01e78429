// Data-access modelling types shared between the data grid and the workload
// layer.
//
// A DataAccessSpec is an *orthogonal archetype trait* (see
// workload/archetype_registry.hpp): it describes which datasets an
// archetype's jobs read — working-set size, popularity skew, per-job
// dataset count, dataset size distribution, replication degree — without
// saying anything about the archetype's compute shape. A DataAccessProfile
// is one job's resolved input set, drawn from those distributions; the
// DataGrid turns a profile into cache hits or WAN stage-in transfers whose
// latency delays the job's submission (Begy et al., "Simulating Data Access
// Profiles of Computational Jobs in Data Grids").
#pragma once

#include <cstdint>
#include <vector>

#include "des/time.hpp"
#include "util/ids.hpp"

namespace tg {

/// Per-archetype data-access trait. Disabled by default: an archetype with
/// `enabled == false` draws no datasets, consumes no randomness, and its
/// jobs carry zeroed data fields — the PR 3 zero-rate discipline, so
/// data-free runs are byte-identical to builds without this subsystem.
struct DataAccessSpec {
  bool enabled = false;
  /// Datasets in this archetype's community working set (the replica
  /// catalog gets one entry per dataset at scenario construction).
  int pool_datasets = 256;
  /// Zipf popularity skew over the pool (rank 1 = hottest dataset).
  double zipf_s = 1.1;
  /// Input datasets per job, uniform over [min, max].
  int datasets_min = 1;
  int datasets_max = 4;
  /// Dataset sizes: bounded Pareto (heavy tail of large inputs).
  double bytes_alpha = 1.4;
  double bytes_min = 5e9;   ///< 5 GB
  double bytes_max = 2e12;  ///< 2 TB
  /// Replica copies per dataset, placed on distinct random sites.
  int replicas = 2;

  /// A ready-to-enable profile with the defaults above.
  [[nodiscard]] static DataAccessSpec enabled_defaults() {
    DataAccessSpec s;
    s.enabled = true;
    return s;
  }
};

/// One job's resolved input set (datasets are distinct; bytes are summed
/// from the catalog).
struct DataAccessProfile {
  std::vector<DatasetId> datasets;
  double total_bytes = 0.0;

  [[nodiscard]] bool empty() const { return datasets.empty(); }
};

/// What stage-in resolution hands back to the submitter.
struct StageInResult {
  double bytes_read = 0.0;        ///< total input bytes
  double bytes_from_cache = 0.0;  ///< served by the destination site cache
  Duration stage_in = 0;          ///< WAN transfer latency before submission
};

enum class CachePolicy : std::uint8_t {
  kLru,           ///< evict the least recently used dataset
  kSizeAwareLru,  ///< evict the largest dataset in the LRU tail window
};

[[nodiscard]] constexpr const char* to_string(CachePolicy p) {
  switch (p) {
    case CachePolicy::kLru: return "lru";
    case CachePolicy::kSizeAwareLru: return "size-aware";
  }
  return "unknown";
}

/// Scenario-level data grid configuration. Disabled by default; when
/// disabled no DataGrid is constructed, no "data" RNG substream is forked,
/// and every run is byte-identical to a build without src/data.
struct DataGridConfig {
  bool enabled = false;
  /// Per-site storage cache capacity in bytes.
  double site_cache_bytes = 50e12;  ///< 50 TB
  CachePolicy policy = CachePolicy::kLru;

  DataGridConfig& with_cache_bytes(double bytes) {
    site_cache_bytes = bytes;
    return *this;
  }
  DataGridConfig& with_policy(CachePolicy p) {
    policy = p;
    return *this;
  }

  [[nodiscard]] static DataGridConfig enabled_defaults() {
    DataGridConfig c;
    c.enabled = true;
    return c;
  }
};

}  // namespace tg
