// Data-grid subsystem tests: replica catalog, brute-force cache parity
// against a naive reference model, stage-in determinism across execution
// modes, the zero-rate discipline, and the data-centric classification
// loop closing against ground truth.
#include "data/data_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <list>
#include <utility>
#include <vector>

#include "core/classifier.hpp"
#include "core/features.hpp"
#include "data/replica_catalog.hpp"
#include "data/storage_cache.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace tg {
namespace {

TEST(ReplicaCatalog, RegistersAndResolves) {
  ReplicaCatalog catalog;
  const DatasetId a = catalog.add("pool0/ds0", 5e9);
  const DatasetId b = catalog.add("pool0/ds1", 2e10);
  EXPECT_EQ(a.value(), 0);
  EXPECT_EQ(b.value(), 1);
  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_DOUBLE_EQ(catalog.bytes(a), 5e9);
  EXPECT_EQ(catalog.name(b), "pool0/ds1");
  catalog.add_replica(a, SiteId{2});
  catalog.add_replica(a, SiteId{5});
  catalog.add_replica(a, SiteId{2});  // duplicate ignored
  ASSERT_EQ(catalog.replicas(a).size(), 2u);
  EXPECT_DOUBLE_EQ(catalog.replicated_bytes(), 2 * 5e9 + 0 * 2e10);
  EXPECT_THROW(catalog.add("pool0/ds0", 1.0), PreconditionError);
}

// A deliberately naive reference cache: an MRU-front list searched
// linearly, mirroring the documented semantics of StorageCache (LRU
// eviction; the size-aware variant evicts the largest dataset within the
// 8-deep LRU tail window, ties to the least recently used).
class NaiveCache {
 public:
  NaiveCache(double capacity, CachePolicy policy)
      : capacity_(capacity), policy_(policy) {}

  bool lookup(int id) {
    auto it = std::find_if(mru_.begin(), mru_.end(),
                           [id](const auto& e) { return e.first == id; });
    if (it == mru_.end()) return false;
    mru_.splice(mru_.begin(), mru_, it);
    return true;
  }

  void admit(int id, double bytes) {
    if (lookup(id)) return;
    if (bytes > capacity_) {
      ++rejected;
      return;
    }
    while (used_ + bytes > capacity_) evict_one();
    mru_.emplace_front(id, bytes);
    used_ += bytes;
  }

  void evict_one() {
    auto victim = std::prev(mru_.end());
    if (policy_ == CachePolicy::kSizeAwareLru) {
      auto cursor = mru_.rbegin();
      for (int i = 0; i < 8 && cursor != mru_.rend(); ++i, ++cursor) {
        if (cursor->second > victim->second) victim = std::prev(cursor.base());
      }
    }
    used_ -= victim->second;
    ++evictions;
    mru_.erase(victim);
  }

  [[nodiscard]] bool contains(int id) const {
    return std::any_of(mru_.begin(), mru_.end(),
                       [id](const auto& e) { return e.first == id; });
  }
  [[nodiscard]] double used() const { return used_; }
  [[nodiscard]] std::size_t resident() const { return mru_.size(); }

  std::uint64_t evictions = 0;
  std::uint64_t rejected = 0;

 private:
  double capacity_;
  CachePolicy policy_;
  double used_ = 0.0;
  std::list<std::pair<int, double>> mru_;  ///< front = most recently used
};

void parity_run(CachePolicy policy, std::uint64_t seed) {
  constexpr int kDatasets = 48;
  constexpr int kOps = 4000;
  const double capacity = 100.0;
  Rng rng(seed);
  // Sizes in [1, 30]: several datasets thrash, a few never fit patterns.
  std::vector<double> bytes(kDatasets);
  for (double& b : bytes) b = 1.0 + std::floor(rng.uniform() * 30.0);

  StorageCache cache(capacity, policy);
  NaiveCache model(capacity, policy);
  std::uint64_t hits = 0, misses = 0;
  for (int op = 0; op < kOps; ++op) {
    const int id = static_cast<int>(rng.uniform() * kDatasets);
    const bool model_hit = model.lookup(id);
    const bool cache_hit = cache.lookup(DatasetId{id}, bytes[id]);
    ASSERT_EQ(cache_hit, model_hit) << "op " << op << " dataset " << id;
    (cache_hit ? hits : misses)++;
    if (!cache_hit) {
      model.admit(id, bytes[id]);
      cache.admit(DatasetId{id}, bytes[id]);
    }
    ASSERT_DOUBLE_EQ(cache.used_bytes(), model.used()) << "op " << op;
    ASSERT_EQ(cache.resident(), model.resident()) << "op " << op;
  }
  // Full residency parity at the end, plus every counter.
  for (int id = 0; id < kDatasets; ++id) {
    EXPECT_EQ(cache.contains(DatasetId{id}), model.contains(id)) << id;
  }
  EXPECT_EQ(cache.stats().hits, hits);
  EXPECT_EQ(cache.stats().misses, misses);
  EXPECT_EQ(cache.stats().evictions, model.evictions);
  EXPECT_EQ(cache.stats().rejected, model.rejected);
  EXPECT_GT(cache.stats().evictions, 0u);  // the workload must thrash
}

TEST(StorageCache, BruteForceParityLru) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    parity_run(CachePolicy::kLru, seed);
  }
}

TEST(StorageCache, BruteForceParitySizeAware) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    parity_run(CachePolicy::kSizeAwareLru, seed);
  }
}

TEST(StorageCache, RejectsDatasetLargerThanCapacity) {
  StorageCache cache(10.0, CachePolicy::kLru);
  cache.admit(DatasetId{0}, 11.0);
  EXPECT_EQ(cache.stats().rejected, 1u);
  EXPECT_FALSE(cache.contains(DatasetId{0}));
  EXPECT_DOUBLE_EQ(cache.used_bytes(), 0.0);
}

TEST(StorageCache, SizeAwareEvictsLargeTailEntryFirst) {
  StorageCache cache(100.0, CachePolicy::kSizeAwareLru);
  cache.admit(DatasetId{0}, 60.0);
  cache.admit(DatasetId{1}, 30.0);
  // 0 is in the 8-deep tail window and larger than the LRU victim: the
  // size-aware policy drops it, keeping the smaller (older than 1? no —
  // larger) dataset out and both small ones in.
  cache.admit(DatasetId{2}, 20.0);
  EXPECT_FALSE(cache.contains(DatasetId{0}));
  EXPECT_TRUE(cache.contains(DatasetId{1}));
  EXPECT_TRUE(cache.contains(DatasetId{2}));
}

ScenarioConfig data_config(bool plan_cache = true) {
  return ScenarioConfig::defaults()
      .with_seed(99)
      .with_horizon(45 * kDay)
      .with_scale(0.5)
      .with_plan_cache(plan_cache)
      .with_archetype(ArchetypeSpec::data_intensive("dataintensive", 24))
      .with_data_grid(DataGridConfig::enabled_defaults().with_cache_bytes(
          10e12));
}

/// The full per-job data story, byte-comparable across runs.
struct DataTrace {
  std::vector<double> bytes_read;
  std::vector<double> bytes_from_cache;
  std::vector<Duration> stage_in;
  std::vector<SimTime> end_times;
};

DataTrace run_trace(const ScenarioConfig& config) {
  Scenario s{ScenarioConfig(config)};
  s.run();
  DataTrace t;
  for (const JobRecord& r : s.db().jobs()) {
    t.bytes_read.push_back(r.bytes_read);
    t.bytes_from_cache.push_back(r.bytes_from_cache);
    t.stage_in.push_back(r.stage_in);
    t.end_times.push_back(r.end_time);
  }
  return t;
}

TEST(DataGrid, StageInDeterministicAcrossExecutionModes) {
  // The exact-replan reference planner must reproduce every job's data
  // fields and completion time exactly.
  const DataTrace cached = run_trace(data_config());
  const DataTrace replan = run_trace(data_config(/*plan_cache=*/false));
  EXPECT_EQ(cached.bytes_read, replan.bytes_read);
  EXPECT_EQ(cached.bytes_from_cache, replan.bytes_from_cache);
  EXPECT_EQ(cached.stage_in, replan.stage_in);
  EXPECT_EQ(cached.end_times, replan.end_times);
}

TEST(DataGrid, StageInFeedsJobDataFields) {
  Scenario s(data_config());
  s.run();
  ASSERT_NE(s.data_grid(), nullptr);
  const DataGrid::Stats& stats = s.data_grid()->stats();
  EXPECT_GT(stats.stage_ins, 0u);
  EXPECT_GT(stats.bytes_read, 0.0);
  std::size_t with_data = 0, with_stage_in = 0;
  for (const JobRecord& r : s.db().jobs()) {
    if (r.bytes_read > 0.0) ++with_data;
    if (r.stage_in > 0) {
      ++with_stage_in;
      EXPECT_GT(r.bytes_read, 0.0);
    }
    EXPECT_LE(r.bytes_from_cache, r.bytes_read);
  }
  EXPECT_GT(with_data, 0u);
  EXPECT_GT(with_stage_in, 0u);
  // Cache counters moved too: the quarter's reuse hits the site caches.
  EXPECT_GT(s.data_grid()->total_cache_stats().hits, 0u);
}

TEST(DataGrid, ZeroRateDisciplineWhenUnconfigured) {
  Scenario s(ScenarioConfig::defaults().with_seed(99).with_horizon(30 * kDay)
                 .with_scale(0.5));
  s.run();
  EXPECT_EQ(s.data_grid(), nullptr);
  for (const JobRecord& r : s.db().jobs()) {
    EXPECT_DOUBLE_EQ(r.bytes_read, 0.0);
    EXPECT_DOUBLE_EQ(r.bytes_from_cache, 0.0);
    EXPECT_EQ(r.stage_in, 0);
  }
}

TEST(DataGrid, DataCentricUsersRecoveredFromRecords) {
  // A full quarter so per-user staged volume clears the classifier's
  // bytes-read gates. Recall is measured over the staged archetype: the
  // builtin "data" archetype has no data trait (bytes_read == 0) and is
  // recovered by the older bytes-transferred rule, not the one under test.
  Scenario s(data_config().with_horizon(kQuarter));
  s.run();
  const FeatureExtractor extractor(s.platform(), s.config().features);
  const auto features = extractor.extract(s.db(), 0, s.engine().now() + 1);
  const RuleClassifier classifier;
  const auto sets = classifier.classify(features);
  std::vector<bool> flagged_of(
      static_cast<std::size_t>(s.db().user_id_limit()), false);
  std::size_t false_flags = 0;
  for (std::size_t i = 0; i < features.size(); ++i) {
    const bool truth =
        s.truth().of(features[i].user) == Modality::kDataCentric;
    const bool hit = sets[i].has(Modality::kDataCentric);
    if (hit) {
      flagged_of[static_cast<std::size_t>(features[i].user.value())] = true;
      if (!truth) ++false_flags;
    }
  }
  const std::size_t staged_index =
      s.population().registry.index_of("dataintensive");
  std::size_t staged = 0, staged_hit = 0;
  for (const SyntheticUser& u : s.population().users) {
    if (u.archetype != staged_index) continue;
    ++staged;
    const auto v = static_cast<std::size_t>(u.id.value());
    if (v < flagged_of.size() && flagged_of[v]) ++staged_hit;
  }
  ASSERT_GT(staged, 0u);
  // The acceptance bar: >= 90% of the staged data-intensive users are
  // recovered from the accounting stream alone, with few false positives.
  EXPECT_GE(static_cast<double>(staged_hit) / static_cast<double>(staged),
            0.9)
      << staged_hit << "/" << staged;
  EXPECT_LE(false_flags, staged / 5);
}

}  // namespace
}  // namespace tg
