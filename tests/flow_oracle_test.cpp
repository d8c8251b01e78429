// Max-min fairness oracle test: the FlowManager's assigned rates are
// compared, mid-simulation, against an independent brute-force progressive
// filling implementation over random topologies and flow sets.
#include <gtest/gtest.h>

#include <limits>
#include <map>

#include "net/flow.hpp"
#include "util/rng.hpp"

namespace tg {
namespace {

class FlowOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowOracle, RatesMatchReferenceSolver) {
  Rng rng(GetParam());
  // Random star+chords topology over 6 sites.
  Platform platform;
  std::vector<SiteId> sites;
  for (int i = 0; i < 6; ++i) {
    sites.push_back(
        platform.add_site(std::string("s").append(std::to_string(i))));
  }
  ComputeResource c;
  c.site = sites[0];
  c.name = "c";
  c.nodes = 1;
  c.cores_per_node = 1;
  platform.add_compute(c);
  for (int i = 1; i < 6; ++i) {
    platform.add_link(sites[0], sites[static_cast<std::size_t>(i)],
                      rng.uniform(1.0, 10.0), 10 * kMillisecond);
  }
  // A couple of chords make multiple routes possible.
  platform.add_link(sites[1], sites[2], rng.uniform(1.0, 10.0),
                    5 * kMillisecond);
  platform.add_link(sites[3], sites[4], rng.uniform(1.0, 10.0),
                    5 * kMillisecond);

  Engine engine;
  const double host_gbps = rng.uniform(2.0, 20.0);
  FlowManager flows(engine, platform, host_gbps);

  // Launch 12 long flows between random distinct sites.
  std::vector<TransferId> ids;
  std::vector<std::vector<int>> paths;
  for (int f = 0; f < 12; ++f) {
    const auto a = static_cast<std::size_t>(rng.uniform_int(0, 5));
    auto b = static_cast<std::size_t>(rng.uniform_int(0, 5));
    if (b == a) b = (a + 1) % 6;
    ids.push_back(flows.start_transfer(sites[a], sites[b], 1e13, UserId{f},
                                       ProjectId{0}));
    std::vector<int> path;
    for (LinkId l : flows.route(sites[a], sites[b])) {
      path.push_back(l.value());
    }
    paths.push_back(std::move(path));
  }
  // Let all flows activate (max path latency is tiny), then compare.
  engine.run_until(kSecond);

  std::vector<double> caps;
  for (const Link& l : platform.links()) caps.push_back(l.gbps * 1e9 / 8.0);
  // Independent reference: brute-force progressive filling with per-flow
  // host caps.
  std::map<int, double> expected;
  {
    std::vector<double> cap = caps;
    std::vector<int> users(caps.size(), 0);
    std::vector<bool> frozen(paths.size(), false);
    for (const auto& p : paths) {
      for (int l : p) ++users[static_cast<std::size_t>(l)];
    }
    std::size_t remaining = paths.size();
    const double host_cap = host_gbps * 1e9 / 8.0;
    while (remaining > 0) {
      double min_share = host_cap;
      for (std::size_t l = 0; l < cap.size(); ++l) {
        if (users[l] > 0) min_share = std::min(min_share, cap[l] / users[l]);
      }
      for (std::size_t f = 0; f < paths.size(); ++f) {
        if (frozen[f]) continue;
        bool bottlenecked = host_cap <= min_share * (1 + 1e-12);
        for (int l : paths[f]) {
          const auto li = static_cast<std::size_t>(l);
          if (cap[li] / users[li] <= min_share * (1 + 1e-12)) {
            bottlenecked = true;
          }
        }
        if (!bottlenecked) continue;
        expected[static_cast<int>(f)] = min_share;
        frozen[f] = true;
        --remaining;
        for (int l : paths[f]) {
          const auto li = static_cast<std::size_t>(l);
          cap[li] -= min_share;
          --users[li];
        }
      }
    }
  }

  for (std::size_t f = 0; f < ids.size(); ++f) {
    const double measured = flows.flow_rate_bps(ids[f]);
    const double want = expected.at(static_cast<int>(f));
    EXPECT_NEAR(measured, want, want * 1e-9)
        << "flow " << f << " rate mismatch";
  }

  // Sanity: no link oversubscribed by the measured rates.
  std::vector<double> used(caps.size(), 0.0);
  for (std::size_t f = 0; f < ids.size(); ++f) {
    for (int l : paths[f]) {
      used[static_cast<std::size_t>(l)] += flows.flow_rate_bps(ids[f]);
    }
  }
  for (std::size_t l = 0; l < caps.size(); ++l) {
    EXPECT_LE(used[l], caps[l] * (1 + 1e-9));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowOracle,
                         ::testing::Values(1ULL, 7ULL, 21ULL, 99ULL,
                                           12345ULL));

}  // namespace
}  // namespace tg
