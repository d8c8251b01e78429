// The parallel analytics pipeline must be a pure speedup: every pooled
// stage (per-user feature extraction, the modality report, window
// classification series) returns results byte-identical to the sequential
// pass, on fault-free and faulty scenarios alike, over a resident store and
// over one whose segments seal and spill.
#include <gtest/gtest.h>

#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "core/trend.hpp"
#include "parallel/thread_pool.hpp"
#include "workload/scenario.hpp"

namespace tg {
namespace {

struct StoreParams {
  bool faulty = false;
  /// Store records in 256-record segments that spill to a temp directory.
  bool spilled = false;
};

/// Prints the fault flag as `false`/`true`, then `, spilled` for the
/// spilling store, so the resident instances keep stable test names.
void PrintTo(const StoreParams& p, std::ostream* os) {
  *os << (p.faulty ? "true" : "false") << (p.spilled ? ", spilled" : "");
}

class AnalyticsParallelTest : public ::testing::TestWithParam<StoreParams> {
 protected:
  void TearDown() override { std::filesystem::remove_all(spill_dir()); }

  static std::filesystem::path spill_dir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string("tgsim_analytics_") + info->name();
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    return std::filesystem::temp_directory_path() / name;
  }

  static ScenarioConfig base_config() {
    ScenarioConfig config;
    config.seed = 1234;
    config.horizon = 120 * kDay;
    if (GetParam().faulty) {
      config.faults.outage.mtbf_hours = 400.0;
      config.faults.job_failure_rate_per_hour = 0.0005;
      config.faults.gateway_brownouts_per_week = 0.25;
    }
    if (GetParam().spilled) {
      std::filesystem::remove_all(spill_dir());
      std::filesystem::create_directories(spill_dir());
      config.streaming.enabled = true;
      config.streaming.segments.segment_records = 256;
      config.streaming.segments.spill_dir = spill_dir().string();
    }
    return config;
  }
};

TEST_P(AnalyticsParallelTest, ReportMatchesSequentialByteForByte) {
  Scenario scenario(base_config());
  scenario.run();
  const RuleClassifier classifier;
  const ModalityReport sequential = scenario.report(classifier);
  ThreadPool pool(4);
  const ModalityReport parallel = scenario.report(classifier, &pool);
  EXPECT_EQ(sequential.to_table().to_string(),
            parallel.to_table().to_string());
  EXPECT_EQ(sequential.gateway_end_users(), parallel.gateway_end_users());
  EXPECT_EQ(sequential.total_users(), parallel.total_users());
  EXPECT_DOUBLE_EQ(sequential.total_nu(), parallel.total_nu());
}

TEST_P(AnalyticsParallelTest, PredictionsMatchSequential) {
  Scenario scenario(base_config());
  scenario.run();
  const RuleClassifier classifier;
  const auto sequential = scenario.predictions(classifier);
  ThreadPool pool(4);
  const auto parallel = scenario.predictions(classifier, &pool);
  ASSERT_EQ(sequential.users.size(), parallel.users.size());
  EXPECT_EQ(sequential.users, parallel.users);
  EXPECT_EQ(sequential.truth, parallel.truth);
  EXPECT_EQ(sequential.predicted, parallel.predicted);
}

TEST_P(AnalyticsParallelTest, ClassifySeriesMatchesSequential) {
  Scenario scenario(base_config());
  scenario.run();
  const RuleClassifier classifier;
  const SimTime to = 4 * (30 * kDay);
  const auto sequential =
      classify_series(scenario.platform(), scenario.db(), classifier, 0, to,
                      30 * kDay, scenario.config().features);
  ThreadPool pool(4);
  const auto parallel =
      classify_series(scenario.platform(), scenario.db(), classifier, 0, to,
                      30 * kDay, scenario.config().features, &pool);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t q = 0; q < sequential.size(); ++q) {
    EXPECT_EQ(sequential[q], parallel[q]) << "window " << q;
  }
}

TEST_P(AnalyticsParallelTest, QuarterlySeriesMatchesSequential) {
  Scenario scenario(base_config());
  scenario.run();
  const RuleClassifier classifier;
  const auto sequential =
      quarterly_series(scenario.platform(), scenario.db(), classifier, 0,
                       kQuarter, scenario.config().features);
  ThreadPool pool(4);
  const auto parallel =
      quarterly_series(scenario.platform(), scenario.db(), classifier, 0,
                       kQuarter, scenario.config().features, &pool);
  EXPECT_EQ(sequential.primary_users, parallel.primary_users);
  EXPECT_EQ(sequential.gateway_end_users, parallel.gateway_end_users);
}

INSTANTIATE_TEST_SUITE_P(
    FaultFreeAndFaulty, AnalyticsParallelTest,
    ::testing::Values(StoreParams{false, false}, StoreParams{true, false},
                      StoreParams{false, true}, StoreParams{true, true}),
    [](const auto& info) {
      return std::string(info.param.faulty ? "faulty" : "fault_free") +
             (info.param.spilled ? "_spilled" : "");
    });

}  // namespace
}  // namespace tg
