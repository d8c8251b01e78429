#include "net/flow.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace tg {
namespace {

constexpr double kGb = 1e9 / 8.0;  // bytes per Gbit

/// Star platform: N spokes around a hub, every link `gbps`.
Platform star_platform(int spokes, double gbps) {
  Platform p;
  const SiteId hub = p.add_site("hub");
  for (int i = 0; i < spokes; ++i) {
    const SiteId s = p.add_site(std::string("s").append(std::to_string(i)));
    p.add_link(hub, s, gbps, 10 * kMillisecond);
  }
  // At least one compute resource keeps Platform sane for other users.
  ComputeResource c;
  c.site = hub;
  c.name = "hubby";
  c.nodes = 1;
  c.cores_per_node = 1;
  p.add_compute(c);
  return p;
}

struct Fixture {
  Platform platform = star_platform(4, 10.0);
  Engine engine;
  FlowManager flows{engine, platform, /*host_gbps=*/10.0};

  SiteId site(int i) const {
    return platform.sites()[static_cast<std::size_t>(i)].id;
  }
};

TEST(FlowRouting, DirectPathThroughHub) {
  Fixture f;
  const auto path = f.flows.route(f.site(1), f.site(2));
  EXPECT_EQ(path.size(), 2u);  // spoke -> hub -> spoke
  EXPECT_EQ(f.flows.path_latency(f.site(1), f.site(2)), 20 * kMillisecond);
}

TEST(FlowRouting, SameSiteIsEmpty) {
  Fixture f;
  EXPECT_TRUE(f.flows.route(f.site(1), f.site(1)).empty());
  EXPECT_EQ(f.flows.path_latency(f.site(1), f.site(1)), 0);
}

TEST(FlowRouting, DisconnectedThrows) {
  Platform p = star_platform(2, 10.0);
  p.add_site("island");
  Engine e;
  FlowManager fm(e, p);
  EXPECT_THROW((void)fm.route(p.sites()[0].id, p.sites()[3].id),
               PreconditionError);
}

TEST(Flow, SingleFlowGetsFullBottleneck) {
  Fixture f;
  // 10 Gb/s path, host cap 10 Gb/s -> 1.25 GB/s. 12.5 GB -> 10 s + 20ms.
  bool done = false;
  SimTime end = 0;
  f.flows.start_transfer(f.site(1), f.site(2), 12.5e9, UserId{0},
                         ProjectId{0}, [&](const Flow& fl) {
                           done = true;
                           end = fl.completed;
                         });
  f.engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(end, 10 * kSecond + 20 * kMillisecond);
}

TEST(Flow, TwoFlowsShareLink) {
  Fixture f;
  // Both flows traverse the same spoke link (site1 -> site2): equal split.
  std::vector<SimTime> ends;
  for (int i = 0; i < 2; ++i) {
    f.flows.start_transfer(f.site(1), f.site(2), 12.5e9, UserId{i},
                           ProjectId{0},
                           [&](const Flow& fl) { ends.push_back(fl.completed); });
  }
  f.engine.run();
  ASSERT_EQ(ends.size(), 2u);
  // Each gets 5 Gb/s -> 20 s (+latency).
  EXPECT_EQ(ends[0], 20 * kSecond + 20 * kMillisecond);
  EXPECT_EQ(ends[1], 20 * kSecond + 20 * kMillisecond);
}

TEST(Flow, DisjointFlowsDontInterfere) {
  Fixture f;
  // site1->site2 and site3->site0 share only the hub (which is a site,
  // not a link) — all four links distinct, so both run at full rate.
  std::vector<SimTime> ends;
  f.flows.start_transfer(f.site(1), f.site(2), 12.5e9, UserId{0}, ProjectId{0},
                         [&](const Flow& fl) { ends.push_back(fl.completed); });
  f.flows.start_transfer(f.site(3), f.site(4), 12.5e9, UserId{1}, ProjectId{0},
                         [&](const Flow& fl) { ends.push_back(fl.completed); });
  f.engine.run();
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_EQ(ends[0], 10 * kSecond + 20 * kMillisecond);
  EXPECT_EQ(ends[1], 10 * kSecond + 20 * kMillisecond);
}

TEST(Flow, MaxMinUnevenShares) {
  // Host cap below link capacity: flow on an empty link is host-limited
  // while the shared-link flows split the remainder of their bottleneck.
  Platform p = star_platform(3, 10.0);
  Engine e;
  FlowManager fm(e, p, /*host_gbps=*/4.0);
  const SiteId s1 = p.sites()[1].id;
  const SiteId s2 = p.sites()[2].id;
  fm.start_transfer(s1, s2, 1e12, UserId{0}, ProjectId{0});
  e.run_until(kSecond);
  // Single flow: host cap 4 Gb/s = 0.5e9 B/s.
  EXPECT_NEAR(fm.flow_rate_bps(TransferId{0}), 0.5e9, 1e3);
}

TEST(Flow, RatesRebalanceOnDeparture) {
  Fixture f;
  // Flow A: 12.5 GB, flow B: 25 GB on the same path. A finishes first at
  // 5 Gb/s, then B speeds to 10 Gb/s.
  SimTime end_a = 0;
  SimTime end_b = 0;
  f.flows.start_transfer(f.site(1), f.site(2), 12.5e9, UserId{0}, ProjectId{0},
                         [&](const Flow& fl) { end_a = fl.completed; });
  f.flows.start_transfer(f.site(1), f.site(2), 25e9, UserId{1}, ProjectId{0},
                         [&](const Flow& fl) { end_b = fl.completed; });
  f.engine.run();
  // A: shares 10Gb/s -> 0.625 GB/s each -> 20 s. B has 12.5 GB left, now
  // at 1.25 GB/s -> +10 s = 30 s (+latency).
  EXPECT_EQ(end_a, 20 * kSecond + 20 * kMillisecond);
  EXPECT_EQ(end_b, 30 * kSecond + 20 * kMillisecond);
}

TEST(Flow, ZeroByteTransferCompletesAfterLatency) {
  Fixture f;
  SimTime end = -1;
  f.flows.start_transfer(f.site(1), f.site(2), 0.0, UserId{0}, ProjectId{0},
                         [&](const Flow& fl) { end = fl.completed; });
  f.engine.run();
  EXPECT_EQ(end, 20 * kMillisecond);
}

TEST(Flow, IntraSiteTransferUsesHostCap) {
  Fixture f;
  SimTime end = -1;
  // 1.25 GB at host cap 1.25 GB/s -> 1 s, zero latency.
  f.flows.start_transfer(f.site(1), f.site(1), 1.25e9, UserId{0}, ProjectId{0},
                         [&](const Flow& fl) { end = fl.completed; });
  f.engine.run();
  EXPECT_EQ(end, 1 * kSecond);
}

TEST(Flow, ObserverSeesEveryCompletion) {
  Fixture f;
  int observed = 0;
  f.flows.set_transfer_observer([&](const Flow&) { ++observed; });
  for (int i = 0; i < 5; ++i) {
    f.flows.start_transfer(f.site(1), f.site(2), 1e9, UserId{i}, ProjectId{0});
  }
  f.engine.run();
  EXPECT_EQ(observed, 5);
  EXPECT_EQ(f.flows.active_flows(), 0u);
}

TEST(Flow, CompletedRecordsCarryMetadata) {
  Fixture f;
  std::vector<Flow> done;
  f.flows.set_transfer_observer([&](const Flow& fl) { done.push_back(fl); });
  f.flows.start_transfer(f.site(1), f.site(3), 2e9, UserId{7}, ProjectId{3});
  f.engine.run();
  ASSERT_EQ(done.size(), 1u);
  const Flow& fl = done.front();
  EXPECT_EQ(fl.user, UserId{7});
  EXPECT_EQ(fl.project, ProjectId{3});
  EXPECT_EQ(fl.total_bytes, 2e9);
  EXPECT_FALSE(fl.active);
  EXPECT_EQ(fl.remaining_bytes, 0.0);
  EXPECT_GT(fl.completed, fl.submitted);
}

TEST(Flow, SameTickCompletionsFireInTransferIdOrder) {
  Fixture f;
  // Four 12.5 GB flows share the 10 Gb/s spoke links at 2.5 Gb/s each, so
  // all four land at 40 s + 20 ms. They complete in TransferId order, after
  // a coordinator completion event armed at that tick before they started.
  const SimTime tick = 40 * kSecond + 20 * kMillisecond;
  std::vector<std::int64_t> order;
  f.engine.schedule_at(tick, [&] { order.push_back(-1); },
                       EventPriority::kCompletion, EventBinding{});
  f.flows.set_transfer_observer([&](const Flow& fl) {
    EXPECT_EQ(f.engine.now(), tick);
    order.push_back(fl.id.value());
  });
  for (int i = 0; i < 4; ++i) {
    f.flows.start_transfer(f.site(1), f.site(2), 12.5e9, UserId{i},
                           ProjectId{0});
  }
  f.engine.run();
  EXPECT_EQ(order, (std::vector<std::int64_t>{-1, 0, 1, 2, 3}));
}

TEST(Flow, RejectsNegativeBytes) {
  Fixture f;
  EXPECT_THROW(f.flows.start_transfer(f.site(1), f.site(2), -1.0, UserId{0},
                                      ProjectId{0}),
               PreconditionError);
}

// Conservation property: total bytes delivered equals total bytes injected
// across random flow mixes.
class FlowConservation : public ::testing::TestWithParam<int> {};

TEST_P(FlowConservation, BytesConserved) {
  Fixture f;
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  double injected = 0.0;
  const int n = 20;
  for (int i = 0; i < n; ++i) {
    const auto s1 = 1 + static_cast<int>(rng.uniform_int(0, 3));
    auto s2 = 1 + static_cast<int>(rng.uniform_int(0, 3));
    const double bytes = rng.uniform(1e8, 5e9);
    injected += bytes;
    f.engine.schedule_at(
        static_cast<SimTime>(rng.uniform_int(0, 10'000)),
        [&f, s1, s2, bytes] {
          f.flows.start_transfer(f.site(s1), f.site(s2), bytes, UserId{0},
                                 ProjectId{0});
        });
  }
  double delivered = 0.0;
  int completed = 0;
  f.flows.set_transfer_observer([&](const Flow& fl) {
    delivered += fl.total_bytes;
    ++completed;
  });
  f.engine.run();
  EXPECT_EQ(completed, n);
  EXPECT_NEAR(delivered, injected, injected * 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowConservation, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace tg
