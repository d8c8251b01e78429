#include "core/features.hpp"

#include <algorithm>

#include "parallel/thread_pool.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace tg {

FeatureExtractor::FeatureExtractor(const Platform& platform,
                                   FeatureConfig config)
    : platform_(platform), config_(config) {
  TG_REQUIRE(config.burst_window > 0 && config.burst_min_jobs >= 2,
             "invalid burst parameters");
}

int count_burst_jobs(std::vector<BurstGeometry>& arena, Duration window,
                     int min_jobs) {
  std::sort(arena.begin(), arena.end(), [](const auto& a, const auto& b) {
    if (a.nodes != b.nodes) return a.nodes < b.nodes;
    if (a.walltime != b.walltime) return a.walltime < b.walltime;
    return a.submit < b.submit;
  });
  const auto in_group = [](const auto& a, const auto& b) {
    return a.nodes == b.nodes && a.walltime == b.walltime;
  };
  int burst_jobs = 0;
  const std::size_t n = arena.size();
  for (std::size_t i = 0; i < n;) {
    std::size_t j = i + 1;
    while (j < n && in_group(arena[i], arena[j])) ++j;
    // Sweep this geometry's submit times, counting the union of every
    // window that reaches min_jobs (marked_until = end of counted prefix).
    std::size_t lo = i;
    std::size_t marked_until = i;
    for (std::size_t hi = i; hi < j; ++hi) {
      while (arena[hi].submit - arena[lo].submit > window) ++lo;
      if (hi - lo + 1 >= static_cast<std::size_t>(min_jobs)) {
        const std::size_t start = std::max(lo, marked_until);
        burst_jobs += static_cast<int>(hi + 1 - start);
        marked_until = hi + 1;
      }
    }
    i = j;
  }
  return burst_jobs;
}

void FeatureAccumulator::reset() {
  sums_ = UserFeatures{};
  tally_ = Tally{};
  runtimes_.clear();
  geometry_.clear();
  ++resource_stamp_;
}

inline void FeatureAccumulator::add_job(const JobRecord& r,
                                        const Platform& platform,
                                        UserFeatures& f, Tally& t) {
  ++f.jobs;
  f.total_nu += r.charged_nu;
  f.total_su += r.charged_su;
  f.bytes_read += r.bytes_read;
  f.bytes_read_cached += r.bytes_from_cache;
  f.stage_in_s += to_seconds(r.stage_in);
  if (r.gateway.valid()) ++t.gateway;
  if (r.workflow.valid()) ++t.workflow;
  if (r.coallocated) ++t.coalloc;
  if (r.interactive || r.viz_resource) ++t.viz;
  if (r.final_state == JobState::kFailed) ++t.failed;
  if (r.disposition == Disposition::kRequeued) ++t.requeued;
  if (r.disposition == Disposition::kKilledByOutage) ++t.outage_killed;
  f.max_width_cores = std::max(f.max_width_cores, r.width_cores());
  const ComputeResource& res = platform.compute_at(r.resource);
  f.max_machine_fraction = std::max(
      f.max_machine_fraction, static_cast<double>(r.nodes) / res.nodes);
  t.width_sum += r.width_cores();
  runtimes_.push_back(to_seconds(r.runtime()));
  geometry_.push_back({r.nodes, r.requested_walltime, r.submit_time});
  if (r.resource.valid()) {
    const auto slot = static_cast<std::size_t>(r.resource.value());
    if (slot >= resource_mark_.size()) resource_mark_.resize(slot + 1, 0);
    if (resource_mark_[slot] != resource_stamp_) {
      resource_mark_[slot] = resource_stamp_;
      ++f.distinct_resources;
    }
  } else if (!t.invalid_resource_seen) {
    t.invalid_resource_seen = true;
    ++f.distinct_resources;
  }
}

void FeatureAccumulator::add(std::span<const JobRecord* const> jobs,
                             const Platform& platform) {
  // Accumulate in locals: stores into the growing buffers could otherwise
  // alias the running sums and keep them out of registers.
  UserFeatures f = sums_;
  Tally t = tally_;
  runtimes_.reserve(runtimes_.size() + jobs.size());
  geometry_.reserve(geometry_.size() + jobs.size());
  for (const JobRecord* r : jobs) add_job(*r, platform, f, t);
  sums_ = f;
  tally_ = t;
}

void FeatureAccumulator::add(const JobRecord& r, const Platform& platform) {
  add_job(r, platform, sums_, tally_);
}

void FeatureAccumulator::add(const TransferRecord& r) {
  sums_.bytes_transferred += r.bytes;
}

void FeatureAccumulator::add(const SessionRecord& r) {
  ++sums_.sessions;
  if (r.viz) ++sums_.viz_sessions;
}

UserFeatures FeatureAccumulator::finish(UserId user,
                                        const FeatureConfig& config) {
  UserFeatures f = sums_;
  f.user = user;
  if (f.jobs > 0) {
    const double n = static_cast<double>(f.jobs);
    f.gateway_fraction = tally_.gateway / n;
    f.workflow_fraction = tally_.workflow / n;
    f.coalloc_fraction = tally_.coalloc / n;
    f.viz_fraction = tally_.viz / n;
    f.failed_fraction = tally_.failed / n;
    f.requeued_fraction = tally_.requeued / n;
    f.outage_killed_fraction = tally_.outage_killed / n;
    f.mean_width_cores = tally_.width_sum / n;
    double runtime_sum = 0.0;
    for (const double rt : runtimes_) runtime_sum += rt;
    f.mean_runtime_s = runtime_sum / n;
    std::sort(runtimes_.begin(), runtimes_.end());
    f.median_runtime_s = percentile_sorted(runtimes_, 0.5);
    f.burst_fraction =
        count_burst_jobs(geometry_, config.burst_window,
                         config.burst_min_jobs) /
        n;
  }
  return f;
}

namespace {

/// One stream's window records bucketed by user (CSR): user u's records
/// are items[off[u], off[u + 1]) in append order. Two visitor passes —
/// count per user, prefix-sum, fill — with no per-user allocation. Built
/// sequentially, then only read, so every worker shares it.
template <class Record>
struct UserBuckets {
  std::vector<std::uint32_t> off;
  std::vector<const Record*> items;

  UserBuckets(const UsageDatabase& db, SimTime from, SimTime to,
              std::size_t limit)
      : off(limit + 1, 0) {
    db.for_each<Record>(from, to, [&](const Record& r) {
      if (r.user.valid()) ++off[static_cast<std::size_t>(r.user.value()) + 1];
    });
    for (std::size_t u = 0; u < limit; ++u) off[u + 1] += off[u];
    std::vector<std::uint32_t> cursor(off.begin(), off.end() - 1);
    items.resize(off[limit]);
    db.for_each<Record>(from, to, [&](const Record& r) {
      if (r.user.valid()) {
        items[cursor[static_cast<std::size_t>(r.user.value())]++] = &r;
      }
    });
  }

  [[nodiscard]] std::span<const Record* const> of(std::size_t u) const {
    return {items.data() + off[u], off[u + 1] - off[u]};
  }
};

}  // namespace

std::vector<UserFeatures> FeatureExtractor::extract(const UsageDatabase& db,
                                                    SimTime from, SimTime to,
                                                    ThreadPool* pool) const {
  // Bucket each stream's window once (sequential), then walk users in id
  // order over the dense buckets.
  const auto limit = static_cast<std::size_t>(db.user_id_limit());
  const UserBuckets<JobRecord> jobs(db, from, to, limit);
  const UserBuckets<TransferRecord> transfers(db, from, to, limit);
  const UserBuckets<SessionRecord> sessions(db, from, to, limit);
  // Users with any record in the window, in id order — the output rows.
  std::vector<std::uint32_t> active;
  for (std::size_t u = 0; u < limit; ++u) {
    if (!jobs.of(u).empty() || !transfers.of(u).empty() ||
        !sessions.of(u).empty()) {
      active.push_back(static_cast<std::uint32_t>(u));
    }
  }
  std::vector<UserFeatures> out(active.size());
  const auto run_range = [&](std::size_t lo, std::size_t hi) {
    FeatureAccumulator acc;
    for (std::size_t i = lo; i < hi; ++i) {
      const auto u = static_cast<std::size_t>(active[i]);
      out[i] = compute(UserId{static_cast<UserId::rep>(u)}, jobs.of(u),
                       transfers.of(u), sessions.of(u), acc);
    }
  };
  if (pool == nullptr || pool->size() <= 1 || active.size() < 2) {
    run_range(0, active.size());
  } else {
    // Contiguous id-ordered chunks; each worker fills disjoint output rows
    // with its own accumulator, so the result is byte-identical to the
    // sequential pass. More chunks than workers evens out skewed users.
    const std::size_t chunks = std::min(active.size(), pool->size() * 4);
    parallel_for(*pool, chunks, [&](std::size_t c) {
      run_range(active.size() * c / chunks, active.size() * (c + 1) / chunks);
    });
  }
  return out;
}

UserFeatures FeatureExtractor::extract_user(const UsageDatabase& db,
                                            UserId user, SimTime from,
                                            SimTime to) const {
  const UserWindowRecords window = db.records_of(user, from, to);
  FeatureAccumulator acc;
  return compute(user, window.jobs, window.transfers, window.sessions, acc);
}

UserFeatures FeatureExtractor::compute(
    UserId user, std::span<const JobRecord* const> jobs,
    std::span<const TransferRecord* const> transfers,
    std::span<const SessionRecord* const> sessions,
    FeatureAccumulator& acc) const {
  acc.reset();
  acc.add(jobs, platform_);
  for (const TransferRecord* r : transfers) acc.add(*r);
  for (const SessionRecord* r : sessions) acc.add(*r);
  return acc.finish(user, config_);
}

}  // namespace tg
