#include "des/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace tg {
namespace {

TEST(Engine, StartsAtZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, FiresInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST(Engine, FifoAmongTies) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.schedule_at(10, [&order, i] { order.push_back(i); });
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, PriorityBreaksTies) {
  Engine e;
  std::vector<std::string> order;
  e.schedule_at(5, [&] { order.push_back("submission"); },
                EventPriority::kSubmission);
  e.schedule_at(5, [&] { order.push_back("completion"); },
                EventPriority::kCompletion);
  e.run();
  EXPECT_EQ(order, (std::vector<std::string>{"completion", "submission"}));
}

TEST(Engine, ScheduleInIsRelative) {
  Engine e;
  SimTime seen = -1;
  e.schedule_at(100, [&] {
    e.schedule_in(50, [&] { seen = e.now(); });
  });
  e.run();
  EXPECT_EQ(seen, 150);
}

TEST(Engine, RejectsPastScheduling) {
  Engine e;
  e.schedule_at(100, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(50, [] {}), PreconditionError);
  EXPECT_THROW(e.schedule_in(-1, [] {}), PreconditionError);
}

TEST(Engine, RejectsNullCallback) {
  Engine e;
  EXPECT_THROW(e.schedule_at(1, std::function<void()>()), PreconditionError);
}

TEST(Engine, CancelPreventsFiring) {
  Engine e;
  bool fired = false;
  const EventId id = e.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(e.cancel(id));
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelTwiceFails) {
  Engine e;
  const EventId id = e.schedule_at(10, [] {});
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));
  EXPECT_FALSE(e.cancel(kInvalidEvent));
  EXPECT_FALSE(e.cancel(999999));
}

TEST(Engine, CancelAfterFireFails) {
  Engine e;
  const EventId id = e.schedule_at(10, [] {});
  e.run();
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine e;
  std::vector<SimTime> fired;
  e.schedule_at(10, [&] { fired.push_back(10); });
  e.schedule_at(20, [&] { fired.push_back(20); });
  e.schedule_at(30, [&] { fired.push_back(30); });
  const std::size_t n = e.run_until(20);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(e.now(), 20);  // clock advances to the boundary
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  e.run();
  EXPECT_EQ(fired.back(), 30);
}

TEST(Engine, RunUntilAdvancesClockWithNoEvents) {
  Engine e;
  e.run_until(500);
  EXPECT_EQ(e.now(), 500);
  EXPECT_THROW(e.run_until(400), PreconditionError);
}

TEST(Engine, EventsScheduledDuringRunAreProcessed) {
  Engine e;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 10) e.schedule_in(5, step);
  };
  e.schedule_at(0, step);
  e.run();
  EXPECT_EQ(chain, 10);
  EXPECT_EQ(e.now(), 45);
}

TEST(Engine, StopHaltsProcessing) {
  Engine e;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(i, [&] {
      if (++count == 3) e.stop();
    });
  }
  e.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(e.pending(), 7u);
  e.run();  // resumes
  EXPECT_EQ(count, 10);
}

TEST(Engine, PendingExcludesCancelled) {
  Engine e;
  const EventId a = e.schedule_at(10, [] {});
  e.schedule_at(20, [] {});
  EXPECT_EQ(e.pending(), 2u);
  e.cancel(a);
  EXPECT_EQ(e.pending(), 1u);
}

TEST(Engine, ProcessedCounter) {
  Engine e;
  for (int i = 0; i < 5; ++i) e.schedule_at(i, [] {});
  e.run();
  EXPECT_EQ(e.events_processed(), 5u);
}

TEST(Engine, RunUntilSkipsCancelledHead) {
  Engine e;
  bool fired = false;
  const EventId a = e.schedule_at(5, [&] { fired = true; });
  e.schedule_at(50, [] {});
  e.cancel(a);
  e.run_until(10);
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.now(), 10);
  EXPECT_EQ(e.pending(), 1u);
}

TEST(Engine, CancelFromWithinCallback) {
  Engine e;
  bool victim_fired = false;
  EventId victim = kInvalidEvent;
  victim = e.schedule_at(20, [&] { victim_fired = true; });
  e.schedule_at(10, [&] { EXPECT_TRUE(e.cancel(victim)); });
  e.run();
  EXPECT_FALSE(victim_fired);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, CancelOwnIdFromWithinCallbackFails) {
  // By the time a callback runs, its event has fired; the handle is stale.
  Engine e;
  EventId self = kInvalidEvent;
  bool cancelled = true;
  self = e.schedule_at(10, [&] { cancelled = e.cancel(self); });
  e.run();
  EXPECT_FALSE(cancelled);
}

TEST(Engine, StaleHandleAfterSlotReuseFails) {
  // Firing recycles the slab slot; a later event may land in the same slot
  // but gets a new generation, so the old handle must not cancel it.
  Engine e;
  const EventId first = e.schedule_at(10, [] {});
  e.run();
  bool second_fired = false;
  const EventId second = e.schedule_at(20, [&] { second_fired = true; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(e.cancel(first));  // stale: must not tombstone `second`
  e.run();
  EXPECT_TRUE(second_fired);
}

TEST(Engine, RunUntilTombstoneHeavyHeap) {
  Engine e;
  int fired = 0;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(e.schedule_at(i, [&] { ++fired; }));
  }
  // Cancel everything except every 100th event: 99% tombstones.
  for (int i = 0; i < 1000; ++i) {
    if (i % 100 != 0) e.cancel(ids[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(e.pending(), 10u);
  EXPECT_EQ(e.run_until(499), 5u);
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(e.now(), 499);
  EXPECT_EQ(e.pending(), 5u);
  e.run();
  EXPECT_EQ(fired, 10);
  EXPECT_GE(e.stats().tombstones, 990u);
}

TEST(Engine, StatsCounters) {
  Engine e;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(e.schedule_at(i, [] {}));
  for (int i = 0; i < 4; ++i) e.cancel(ids[static_cast<std::size_t>(i)]);
  e.run();
  const Engine::Stats& s = e.stats();
  EXPECT_EQ(s.scheduled, 10u);
  EXPECT_EQ(s.cancelled, 4u);
  EXPECT_EQ(s.fired, 6u);
  EXPECT_EQ(s.tombstones, 4u);
  EXPECT_EQ(s.heap_high_water, 10u);
  EXPECT_DOUBLE_EQ(s.tombstone_ratio(), 0.4);
}

TEST(Engine, CallbackCapturesAreDestroyedOnCancel) {
  // cancel() must release the captures immediately, not at pop time.
  Engine e;
  auto token = std::make_shared<int>(7);
  const EventId id = e.schedule_at(10, [token] { (void)*token; });
  EXPECT_EQ(token.use_count(), 2);
  e.cancel(id);
  EXPECT_EQ(token.use_count(), 1);
  e.run();
}

TEST(EventCallback, InlineVsHeapStorage) {
  struct Small {
    std::uint64_t a[4];
    void operator()() const {}
  };
  struct Big {
    std::uint64_t a[16];
    void operator()() const {}
  };
  static_assert(EventCallback::fits_inline<Small>());
  static_assert(!EventCallback::fits_inline<Big>());

  // Both storage classes are built in place, invoke and reset correctly.
  int hits = 0;
  std::uint64_t big_sum = 0;
  Big big{};
  big.a[15] = 41;
  EventCallback small_cb;
  EventCallback big_cb;
  EXPECT_FALSE(static_cast<bool>(small_cb));
  small_cb.emplace([&hits] { ++hits; });
  big_cb.emplace([&big_sum, big] { big_sum = big.a[15] + 1; });
  EXPECT_TRUE(static_cast<bool>(small_cb));
  EXPECT_TRUE(static_cast<bool>(big_cb));
  small_cb();
  big_cb();
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(big_sum, 42u);
  small_cb.reset();
  big_cb.reset();
  EXPECT_FALSE(static_cast<bool>(small_cb));
  EXPECT_FALSE(static_cast<bool>(big_cb));
}

// Golden determinism trace. The hash below was captured by running this
// exact workload on the pre-rewrite engine (std::function heap +
// unordered_set lazy cancellation, PR 1 seed): the slab/tombstone engine
// must order every event identically. Do not update the constant without
// understanding which trace reordering changed it.
TEST(Engine, GoldenTraceMatchesSeedEngine) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };

  Engine e;
  Rng rng(12345);
  std::vector<EventId> ids;
  int fired = 0;
  // Phase 1: scrambled bulk schedule with mixed priorities, cancel a third,
  // run to mid-horizon.
  for (int i = 0; i < 2000; ++i) {
    const SimTime t = rng.uniform_int(0, 10000);
    const int tag = i;
    ids.push_back(e.schedule_at(
        t,
        [&, tag] {
          mix(static_cast<std::uint64_t>(e.now()));
          mix(static_cast<std::uint64_t>(tag));
          ++fired;
        },
        static_cast<EventPriority>(static_cast<int>(rng.uniform_int(0, 3)) *
                                   10)));
  }
  for (std::size_t i = 0; i < ids.size(); i += 3) e.cancel(ids[i]);
  e.run_until(5000);
  mix(static_cast<std::uint64_t>(e.now()));
  // Phase 2: self-rescheduling chains interleaved with the leftovers.
  std::function<void()> chain = [&] {
    mix(static_cast<std::uint64_t>(e.now()));
    ++fired;
    if (fired < 4000) e.schedule_in(rng.uniform_int(1, 7), chain);
  };
  e.schedule_in(1, chain);
  e.run();
  mix(static_cast<std::uint64_t>(e.now()));

  EXPECT_EQ(fired, 4000);
  EXPECT_EQ(e.now(), 15761);
  EXPECT_EQ(h, 5553760236236857368ull);
}

TEST(TimeFormat, Renders) {
  EXPECT_EQ(format_duration(0), "00:00:00");
  EXPECT_EQ(format_duration(kHour + 2 * kMinute + 3 * kSecond), "01:02:03");
  EXPECT_EQ(format_duration(2 * kDay + kHour), "2d 01:00:00");
  EXPECT_EQ(format_duration(-kMinute), "-00:01:00");
}

TEST(TimeConversions, RoundTrip) {
  EXPECT_EQ(from_seconds(1.5), 1500);
  EXPECT_DOUBLE_EQ(to_seconds(2500), 2.5);
  EXPECT_DOUBLE_EQ(to_hours(kDay), 24.0);
  EXPECT_DOUBLE_EQ(to_days(kWeek), 7.0);
}

// Property sweep: interleaved schedule/cancel patterns keep ordering.
class EngineChurn : public ::testing::TestWithParam<int> {};

TEST_P(EngineChurn, MonotoneFiringTimes) {
  Engine e;
  std::vector<SimTime> fired;
  const int n = GetParam();
  std::vector<EventId> ids;
  for (int i = 0; i < n; ++i) {
    const SimTime t = (i * 7919) % 1000;  // scrambled times
    ids.push_back(e.schedule_at(t, [&fired, &e] { fired.push_back(e.now()); }));
  }
  for (int i = 0; i < n; i += 3) e.cancel(ids[static_cast<std::size_t>(i)]);
  e.run();
  for (std::size_t i = 1; i < fired.size(); ++i) {
    ASSERT_LE(fired[i - 1], fired[i]);
  }
  EXPECT_EQ(fired.size(), static_cast<std::size_t>(n - (n + 2) / 3));
}

INSTANTIATE_TEST_SUITE_P(Sizes, EngineChurn, ::testing::Values(10, 100, 1000));

}  // namespace
}  // namespace tg
