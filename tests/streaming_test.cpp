// StreamingExtractor equivalence (DESIGN.md §5.9): at every window
// boundary the streaming features must be *exactly* equal — same bits, no
// tolerance — to FeatureExtractor::extract over the same records, and the
// streaming series must equal classify_series / quarterly_series. Both
// paths share FeatureAccumulator, so this checks what the streaming side
// adds: window assignment, drops and id order. Checked on fault-free and
// faulty scenarios, with and without capped segments, plus the
// stream-order contract (drops counted, regressions throw).
#include "core/streaming.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "workload/scenario.hpp"

namespace tg {
namespace {

constexpr Duration kBucket = 10 * kDay;

/// Exact equality on every field: the contract is bit-identical FP, so
/// EXPECT_EQ (not NEAR) throughout.
void expect_features_identical(const UserFeatures& a, const UserFeatures& b) {
  EXPECT_EQ(a.user, b.user);
  EXPECT_EQ(a.jobs, b.jobs);
  EXPECT_EQ(a.total_nu, b.total_nu);
  EXPECT_EQ(a.total_su, b.total_su);
  EXPECT_EQ(a.gateway_fraction, b.gateway_fraction);
  EXPECT_EQ(a.workflow_fraction, b.workflow_fraction);
  EXPECT_EQ(a.burst_fraction, b.burst_fraction);
  EXPECT_EQ(a.coalloc_fraction, b.coalloc_fraction);
  EXPECT_EQ(a.viz_fraction, b.viz_fraction);
  EXPECT_EQ(a.failed_fraction, b.failed_fraction);
  EXPECT_EQ(a.requeued_fraction, b.requeued_fraction);
  EXPECT_EQ(a.outage_killed_fraction, b.outage_killed_fraction);
  EXPECT_EQ(a.max_width_cores, b.max_width_cores);
  EXPECT_EQ(a.max_machine_fraction, b.max_machine_fraction);
  EXPECT_EQ(a.mean_width_cores, b.mean_width_cores);
  EXPECT_EQ(a.mean_runtime_s, b.mean_runtime_s);
  EXPECT_EQ(a.median_runtime_s, b.median_runtime_s);
  EXPECT_EQ(a.distinct_resources, b.distinct_resources);
  EXPECT_EQ(a.bytes_transferred, b.bytes_transferred);
  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.viz_sessions, b.viz_sessions);
}

ScenarioConfig make_config(bool faulty, std::uint32_t segment_cap = 0,
                           const std::string& spill = {}) {
  ScenarioConfig config;
  config.mini_platform = true;
  config.horizon = 30 * kDay;
  config.seed = 1234;
  if (faulty) {
    config.faults.outage.mtbf_hours = 120.0;
    config.faults.job_failure_rate_per_hour = 0.001;
  }
  config.streaming.enabled = true;
  config.streaming.bucket = kBucket;  // three whole windows in the horizon
  config.streaming.segments.segment_records = segment_cap;
  config.streaming.segments.spill_dir = spill;
  return config;
}

/// Runs the scenario with a window sink that keeps every closed window,
/// then checks that the streaming features equal the batch extract of the
/// same window over the database the stream populated: both paths share
/// the per-user accumulator, so this pins window assignment, drops and id
/// order. Segment runs are covered by the series-equality tests below.
void expect_windows_match_batch(bool faulty) {
  Scenario scenario(make_config(faulty));
  std::vector<StreamingWindow> closed;
  scenario.subscribe(
      [&closed](const StreamingWindow& w) { closed.push_back(w); });
  scenario.run();
  if (faulty) {
    ASSERT_GT(scenario.fault_stats().outages, 0u);
  }
  ASSERT_EQ(closed.size(), 3u);
  const FeatureExtractor extractor(scenario.platform(),
                                   scenario.config().features);
  for (const StreamingWindow& w : closed) {
    const auto batch = extractor.extract(scenario.db(), w.from, w.to);
    ASSERT_EQ(w.features.size(), batch.size())
        << "window [" << w.from << ", " << w.to << ")";
    for (std::size_t i = 0; i < batch.size(); ++i) {
      expect_features_identical(w.features[i], batch[i]);
    }
    ASSERT_EQ(w.sets.size(), batch.size());
    const RuleClassifier classifier;
    const auto batch_sets = classifier.classify(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(w.sets[i].members, batch_sets[i].members);
      EXPECT_EQ(w.sets[i].primary, batch_sets[i].primary);
    }
  }
}

TEST(Streaming, WindowFeaturesMatchBatchExtractFaultFree) {
  expect_windows_match_batch(/*faulty=*/false);
}

TEST(Streaming, WindowFeaturesMatchBatchExtractFaulty) {
  expect_windows_match_batch(/*faulty=*/true);
}

/// Pads every streaming row to the database's user id horizon (users that
/// never reached the stream in-series don't widen the streaming slab).
std::vector<WindowModalities> padded_series(const Scenario& scenario) {
  std::vector<WindowModalities> out = scenario.streaming()->series();
  for (WindowModalities& w : out) {
    w.resize(static_cast<std::size_t>(scenario.db().user_id_limit()),
             kInactiveUser);
  }
  return out;
}

TEST(Streaming, SeriesMatchesClassifySeries) {
  for (const bool faulty : {false, true}) {
    Scenario scenario(make_config(faulty));
    scenario.run();
    const RuleClassifier classifier;
    const auto batch = classify_series(scenario.platform(), scenario.db(),
                                       classifier, 0, 30 * kDay, kBucket,
                                       scenario.config().features);
    EXPECT_EQ(padded_series(scenario), batch) << "faulty=" << faulty;
  }
}

TEST(Streaming, TimeSeriesMatchesQuarterlySeries) {
  // A two-quarter horizon so the batch quarterly_series (fixed kQuarter
  // bucket) has two whole windows to compare.
  ScenarioConfig config;
  config.mini_platform = true;
  config.horizon = 2 * kQuarter;
  config.seed = 99;
  config.streaming.enabled = true;  // bucket defaults to kQuarter
  Scenario scenario(config);
  scenario.run();
  const RuleClassifier classifier;
  const ModalityTimeSeries batch =
      quarterly_series(scenario.platform(), scenario.db(), classifier, 0,
                       2 * kQuarter, scenario.config().features);
  const ModalityTimeSeries stream = scenario.streaming()->time_series();
  ASSERT_EQ(stream.primary_users.size(), batch.primary_users.size());
  EXPECT_EQ(stream.primary_users, batch.primary_users);
  EXPECT_EQ(stream.gateway_end_users, batch.gateway_end_users);
  EXPECT_EQ(stream.bucket, batch.bucket);
}

/// The series must not depend on the storage mode: one resident segment,
/// tiny segments, and spilled segments all produce identical
/// classifications.
TEST(Streaming, SeriesInvariantAcrossSegmentCaps) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("tgsim_streaming_") + info->name());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  Scenario reference(make_config(/*faulty=*/true));
  reference.run();
  const auto want = reference.streaming()->series();

  for (const std::uint32_t cap : {64u, 1024u}) {
    Scenario scenario(
        make_config(/*faulty=*/true, cap, (dir / std::to_string(cap)).string()));
    std::filesystem::create_directories(dir / std::to_string(cap));
    scenario.run();
    EXPECT_TRUE(scenario.db().segmented());
    if (cap == 64u) {
      EXPECT_GT(scenario.db().segment_stats().spilled, 0u) << "cap " << cap;
    }
    EXPECT_EQ(scenario.streaming()->series(), want) << "cap " << cap;
  }
  std::filesystem::remove_all(dir);
}

TEST(Streaming, DropsOutOfSeriesRecordsAndCountsThem) {
  const Platform platform = mini_platform();
  StreamingConfig config;
  config.series_end = 2 * kBucket;
  config.bucket = kBucket;
  StreamingExtractor ex(platform, config);
  JobRecord r;
  r.user = UserId{0};
  r.resource = ResourceId{0};
  r.nodes = 1;
  r.cores_per_node = 8;
  r.end_time = kBucket / 2;
  ex.on_job(r);
  r.end_time = 2 * kBucket;  // at series_end: outside every window
  ex.on_job(r);
  r.end_time = 3 * kBucket;
  ex.on_job(r);
  ex.finish();
  EXPECT_EQ(ex.stats().jobs_ingested.value(), 3u);
  EXPECT_EQ(ex.stats().records_dropped.value(), 2u);
  EXPECT_EQ(ex.stats().windows_closed.value(), 2u);
  ASSERT_EQ(ex.series().size(), 2u);
  EXPECT_NE(ex.series()[0][0], kInactiveUser);
  EXPECT_EQ(ex.series()[1][0], kInactiveUser);
}

TEST(Streaming, RegressingStreamViolatesContract) {
  const Platform platform = mini_platform();
  StreamingConfig config;
  config.series_end = 3 * kBucket;
  config.bucket = kBucket;
  StreamingExtractor ex(platform, config);
  JobRecord r;
  r.user = UserId{0};
  r.resource = ResourceId{0};
  r.nodes = 1;
  r.cores_per_node = 8;
  r.end_time = kBucket + kHour;  // closes window 0
  ex.on_job(r);
  r.end_time = kHour;  // regresses before the open window
  EXPECT_THROW(ex.on_job(r), InvariantError);
}

TEST(Streaming, FinishIsIdempotentAndGuardsAccessors) {
  const Platform platform = mini_platform();
  StreamingConfig config;
  config.series_end = kBucket;
  config.bucket = kBucket;
  StreamingExtractor ex(platform, config);
  EXPECT_THROW((void)ex.series(), PreconditionError);
  ex.finish();
  ex.finish();
  EXPECT_TRUE(ex.finished());
  EXPECT_EQ(ex.series().size(), 1u);  // one empty window
  EXPECT_EQ(ex.stats().windows_closed.value(), 1u);
}

}  // namespace
}  // namespace tg
