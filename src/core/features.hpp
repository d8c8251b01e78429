// Per-user feature extraction from accounting records.
//
// The classifier sees users only through these features, which are computed
// from the central database exactly as a TeraGrid analyst could — this is
// the measurability constraint at the heart of the paper.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "accounting/usage_db.hpp"
#include "des/time.hpp"
#include "infra/platform.hpp"
#include "util/ids.hpp"

namespace tg {

struct UserFeatures {
  UserId user;
  int jobs = 0;
  double total_nu = 0.0;
  double total_su = 0.0;
  /// Fraction of jobs carrying a gateway tag (≈1 for community accounts).
  double gateway_fraction = 0.0;
  /// Fraction of jobs carrying a workflow tag.
  double workflow_fraction = 0.0;
  /// Fraction of jobs belonging to a same-geometry submission burst, the
  /// signature of manual ensembles/sweeps (no workflow tag needed).
  double burst_fraction = 0.0;
  double coalloc_fraction = 0.0;
  /// Fraction of jobs that were interactive or ran on a viz resource.
  double viz_fraction = 0.0;
  double failed_fraction = 0.0;
  /// Fraction of records that were outage-requeued attempts — how degraded
  /// this user's slice of the accounting stream is.
  double requeued_fraction = 0.0;
  /// Fraction of records for jobs killed outright by an outage.
  double outage_killed_fraction = 0.0;
  int max_width_cores = 0;
  /// Max over jobs of nodes / machine nodes — capability signal.
  double max_machine_fraction = 0.0;
  double mean_width_cores = 0.0;
  double mean_runtime_s = 0.0;
  double median_runtime_s = 0.0;
  int distinct_resources = 0;
  double bytes_transferred = 0.0;
  int sessions = 0;
  int viz_sessions = 0;
  /// Data-grid stage-in footprint summed over the user's jobs (zero unless
  /// the scenario ran with a data grid).
  double bytes_read = 0.0;
  double bytes_read_cached = 0.0;
  double stage_in_s = 0.0;

  [[nodiscard]] double bytes_per_nu() const {
    return total_nu > 0.0 ? bytes_transferred / total_nu
                          : bytes_transferred;
  }
  /// Staged input bytes per normalized unit of compute — the data-intensity
  /// ratio the classifier keys on.
  [[nodiscard]] double read_per_nu() const {
    return total_nu > 0.0 ? bytes_read / total_nu : bytes_read;
  }
  /// Fraction of staged bytes served by the site cache tier.
  [[nodiscard]] double cache_hit_fraction() const {
    return bytes_read > 0.0 ? bytes_read_cached / bytes_read : 0.0;
  }
};

struct FeatureConfig {
  /// Minimum burst size for membership to count.
  int burst_min_jobs = 8;
};

/// Submission geometry of one job in the burst-detection arena.
struct BurstGeometry {
  int nodes;
  Duration walltime;
  SimTime submit;
};

/// Jobs with identical (nodes, requested walltime) submitted within this
/// window of each other form a burst.
inline constexpr Duration kBurstWindow = 2 * kHour;

/// Counts jobs that belong to a burst: >= min_jobs submissions with the
/// same (nodes, walltime) geometry inside a sliding kBurstWindow.
/// Sort-based grouping over the caller's arena (sorted in place, one entry
/// per job). Called by FeatureAccumulator::finish.
[[nodiscard]] int count_burst_jobs(std::vector<BurstGeometry>& arena,
                                   int min_jobs);

/// Running features of one user over one window, fed one record at a time
/// in append order. This is the one copy of the per-record feature
/// arithmetic: FeatureExtractor (batch windows and extract_user) and
/// StreamingExtractor both drive it, so the same records in the same order
/// give bit-identical features. Buffers keep their capacity across
/// reset().
class FeatureAccumulator {
 public:
  /// Forgets every record.
  void reset();
  /// Adds job records, in order.
  void add(std::span<const JobRecord* const> jobs, const Platform& platform);
  void add(const JobRecord& r, const Platform& platform);
  void add(const TransferRecord& r);
  void add(const SessionRecord& r);
  /// The window's features for `user`. Sorts the runtime and burst buffers
  /// in place, so call it once per reset().
  [[nodiscard]] UserFeatures finish(UserId user, const FeatureConfig& config);

 private:
  /// Job counts behind the fractions, plus the width sum behind the mean.
  struct Tally {
    int gateway = 0;
    int workflow = 0;
    int coalloc = 0;
    int viz = 0;
    int failed = 0;
    int requeued = 0;
    int outage_killed = 0;
    double width_sum = 0.0;
    bool invalid_resource_seen = false;
  };

  /// Folds one job into the running sums `f` and tallies `t`.
  void add_job(const JobRecord& r, const Platform& platform, UserFeatures& f,
               Tally& t);

  /// Sums, maxima and counts accumulate in place; finish() fills the rest.
  UserFeatures sums_;
  Tally tally_;
  std::vector<double> runtimes_;
  std::vector<BurstGeometry> geometry_;
  /// Distinct resources: slot r holds the stamp of the last window that
  /// saw resource r, so reset() forgets them all by bumping the stamp.
  std::vector<std::uint32_t> resource_mark_;
  std::uint32_t resource_stamp_ = 1;
};

class FeatureExtractor {
 public:
  FeatureExtractor(const Platform& platform, FeatureConfig config = {});

  /// Features for every user with at least one record whose end time falls
  /// in [from, to). Sorted by user id. One visitor pass per stream buckets
  /// the window's records by user (CSR); no per-user map/set allocation.
  [[nodiscard]] std::vector<UserFeatures> extract(const UsageDatabase& db,
                                                  SimTime from,
                                                  SimTime to) const;

  /// Features for one user (empty-record users yield a zeroed entry).
  [[nodiscard]] UserFeatures extract_user(const UsageDatabase& db, UserId user,
                                          SimTime from, SimTime to) const;

 private:
  [[nodiscard]] UserFeatures compute(
      UserId user, std::span<const JobRecord* const> jobs,
      std::span<const TransferRecord* const> transfers,
      std::span<const SessionRecord* const> sessions,
      FeatureAccumulator& acc) const;

  const Platform& platform_;
  FeatureConfig config_;
};

}  // namespace tg
