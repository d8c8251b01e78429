#include "core/annual_report.hpp"

#include <gtest/gtest.h>

#include "workload/scenario.hpp"

namespace tg {
namespace {

class AnnualReportFixture : public ::testing::Test {
 protected:
  static Scenario& scenario() {
    static Scenario* s = [] {
      ScenarioConfig config;
      config.seed = 99;
      config.horizon = 45 * kDay;
      config.registry = ArchetypeRegistry::builtin()
                            .set_count("capacity", 30)
                            .set_count("capability", 4)
                            .set_count("gateway", 20)
                            .set_count("workflow", 8)
                            .set_count("coupled", 2)
                            .set_count("viz", 4)
                            .set_count("data", 6)
                            .set_count("exploratory", 10);
      auto* scenario = new Scenario(std::move(config));
      scenario->run();
      return scenario;
    }();
    return *s;
  }
};

TEST_F(AnnualReportFixture, PerResourceUsageConservesTotals) {
  const Scenario& s = scenario();
  const auto rows = per_resource_usage(s.platform(), s.db(), 0,
                                       s.engine().now() + 1);
  EXPECT_EQ(rows.size(), s.platform().compute().size());
  long jobs = 0;
  double nu = 0.0;
  for (const auto& row : rows) {
    jobs += row.jobs;
    nu += row.nu;
    EXPECT_GE(row.utilization, 0.0);
    EXPECT_LE(row.utilization, 1.0 + 1e-9);
  }
  EXPECT_EQ(jobs, static_cast<long>(s.db().jobs().size()));
  EXPECT_NEAR(nu, s.db().total_nu(), 1e-6 * nu);
}

TEST_F(AnnualReportFixture, UsageByFieldSumsToTotal) {
  const Scenario& s = scenario();
  const auto fields =
      usage_by_field(s.community(), s.db(), 0, s.engine().now() + 1);
  ASSERT_FALSE(fields.empty());
  double total = 0.0;
  for (const auto& [field, nu] : fields) total += nu;
  EXPECT_NEAR(total, s.db().total_nu(), 1e-6 * total);
  // Sorted descending.
  for (std::size_t i = 1; i < fields.size(); ++i) {
    EXPECT_GE(fields[i - 1].second, fields[i].second);
  }
}

TEST_F(AnnualReportFixture, ReportContainsAllSections) {
  const Scenario& s = scenario();
  AnnualReportOptions options;
  options.to = s.engine().now() + 1;
  const std::string report = generate_annual_report(
      s.platform(), s.community(), s.db(), options);
  for (const char* needle :
       {"1. Platform", "2. Headline usage", "3. Usage modalities",
        "4. Resources", "5. Fields of science", "6. WAN data movement",
        "Kraken", "gateway end users"}) {
    EXPECT_NE(report.find(needle), std::string::npos) << needle;
  }
}

TEST(AnnualReportEmpty, EmptyDatabaseStillRenders) {
  const Platform platform = mini_platform();
  Community community;
  UsageDatabase db;
  const std::string report =
      generate_annual_report(platform, community, db);
  EXPECT_NE(report.find("jobs completed:    0"), std::string::npos);
}

TEST(AnnualReportWindow, WindowRestrictsRecords) {
  const Platform platform = mini_platform();
  Community community;
  const ProjectId p =
      community.add_project("P", FieldOfScience::kPhysics, 1e6);
  (void)p;
  UsageDatabase db;
  JobRecord r;
  r.resource = platform.compute()[0].id;
  r.user = UserId{0};
  r.project = ProjectId{0};
  r.start_time = 0;
  r.end_time = kHour;
  r.nodes = 1;
  r.cores_per_node = 8;
  r.charged_nu = 100.0;
  db.add(r);
  r.end_time = 10 * kDay;
  db.add(r);
  const auto early = per_resource_usage(platform, db, 0, kDay);
  EXPECT_EQ(early[0].jobs, 1);
  const auto all = per_resource_usage(platform, db, 0, 20 * kDay);
  EXPECT_EQ(all[0].jobs, 2);
}

}  // namespace
}  // namespace tg
