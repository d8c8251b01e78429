// Many workers reading one record store: window classifications fanned out
// through a Replicator, as exp_modality_churn ships them, must equal the
// inline run, on fault-free and faulty scenarios alike, over a resident
// store and over one whose segments seal and spill (mmap-backed reads).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

#include "core/trend.hpp"
#include "parallel/replicate.hpp"
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
    config.horizon = 240 * kDay;
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

TEST_P(AnalyticsParallelTest, ClassifySeriesMatchesSequential) {
  Scenario scenario(base_config());
  scenario.run();
  if (GetParam().spilled) {
    ASSERT_GT(scenario.db().segment_stats().spilled, 0u);
  }
  const RuleClassifier classifier;
  constexpr std::size_t kWindows = 8;
  const auto window = [&](std::size_t w) {
    return classify_window(scenario.platform(), scenario.db(), classifier,
                           static_cast<SimTime>(w) * 30 * kDay,
                           static_cast<SimTime>(w + 1) * 30 * kDay,
                           scenario.config().features);
  };
  const auto sequential = Replicator(1).run(kWindows, window);
  const auto parallel = Replicator(4).run(kWindows, window);
  ASSERT_EQ(sequential.size(), kWindows);
  ASSERT_EQ(parallel.size(), kWindows);
  for (std::size_t w = 0; w < kWindows; ++w) {
    EXPECT_TRUE(std::any_of(sequential[w].begin(), sequential[w].end(),
                            [](std::int8_t m) { return m != kInactiveUser; }))
        << "window " << w << " classified nobody";
    EXPECT_EQ(sequential[w], parallel[w]) << "window " << w;
  }
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
