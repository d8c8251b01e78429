// Observability layer semantics (see DESIGN.md §5.5): metric value cells,
// registry owned-vs-bound directory behaviour and its sorted deterministic
// snapshot, the phase profiler's export names, trace ring-buffer
// wraparound (oldest overwritten, dropped counted), and TraceSpan
// begin/end edges with nesting depth.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace tg::obs {
namespace {

// --- Counter / Gauge value cells -------------------------------------------

TEST(CounterTest, IncAddSetAndImplicitRead) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc();
  c.add(40);
  EXPECT_EQ(c.value(), 42u);
  // Counters read as integers in arithmetic and comparisons.
  EXPECT_EQ(c + 8u, 50u);
  c.set(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST(GaugeTest, SetAddMaxOf) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(1.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  g.max_of(1.0);  // smaller: no change
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  g.max_of(3.25);
  EXPECT_DOUBLE_EQ(g.value(), 3.25);
  EXPECT_DOUBLE_EQ(g * 2.0, 6.5);
}

// --- MetricsRegistry -------------------------------------------------------

TEST(MetricsRegistryTest, FindOrCreateReturnsSameCell) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  Counter& c = reg.counter("jobs.completed");
  c.inc();
  // Same name: same cell, no second entry.
  reg.counter("jobs.completed").inc();
  EXPECT_EQ(c.value(), 2u);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_TRUE(reg.contains("jobs.completed"));
  EXPECT_FALSE(reg.contains("jobs.failed"));
}

TEST(MetricsRegistryTest, OwnedCellsSurviveGrowth) {
  MetricsRegistry reg;
  Counter& first = reg.counter("m.0");
  // Owned cells live in deques: creating many more must not move `first`.
  for (int i = 1; i < 200; ++i) {
    reg.counter("m." + std::to_string(i)).inc();
  }
  first.add(5);
  EXPECT_EQ(reg.counter("m.0").value(), 5u);
  EXPECT_EQ(reg.size(), 200u);
}

TEST(MetricsRegistryTest, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), PreconditionError);
  EXPECT_THROW(reg.counter(""), PreconditionError);
}

TEST(MetricsRegistryTest, BoundCellsExportLiveValues) {
  MetricsRegistry reg;
  Counter embedded;  // a component-embedded cell, registry only borrows it
  Gauge high_water;
  reg.bind_counter("engine.events", embedded);
  reg.bind_gauge("engine.heap_high_water", high_water);
  // Increments after binding are visible at snapshot time: the registry
  // holds a pointer, not a copy.
  embedded.add(3);
  high_water.max_of(17.0);
  const std::vector<MetricsRegistry::Sample> samples = reg.snapshot();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].name, "engine.events");
  EXPECT_EQ(samples[0].kind, MetricsRegistry::Kind::kCounter);
  EXPECT_DOUBLE_EQ(samples[0].value, 3.0);
  EXPECT_EQ(samples[1].name, "engine.heap_high_water");
  EXPECT_DOUBLE_EQ(samples[1].value, 17.0);
}

TEST(MetricsRegistryTest, DuplicateBindThrows) {
  MetricsRegistry reg;
  Counter a;
  Counter b;
  reg.bind_counter("dup", a);
  EXPECT_THROW(reg.bind_counter("dup", b), PreconditionError);
  // Owned names collide with bound names too, in both directions.
  reg.counter("owned");
  EXPECT_THROW(reg.bind_counter("owned", a), PreconditionError);
  Gauge g;
  reg.bind_gauge("level", g);
  // Same-kind accessor on a bound name finds the bound cell; a mismatched
  // kind throws.
  EXPECT_EQ(&reg.gauge("level"), &g);
  EXPECT_THROW(reg.counter("level"), PreconditionError);
}

TEST(MetricsRegistryTest, SnapshotSortedByNameNotRegistration) {
  MetricsRegistry reg;
  reg.counter("zeta").set(1);
  reg.gauge("alpha").set(2.0);
  Counter mid;
  mid.add(2);
  reg.bind_counter("mid", mid);
  const std::vector<MetricsRegistry::Sample> samples = reg.snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "alpha");
  EXPECT_EQ(samples[1].name, "mid");
  EXPECT_EQ(samples[2].name, "zeta");
  EXPECT_EQ(samples[0].kind, MetricsRegistry::Kind::kGauge);
  EXPECT_DOUBLE_EQ(samples[0].value, 2.0);
  EXPECT_EQ(samples[1].kind, MetricsRegistry::Kind::kCounter);
  EXPECT_DOUBLE_EQ(samples[1].value, 2.0);
}

// --- PhaseProfiler ---------------------------------------------------------

TEST(PhaseProfilerTest, PublishesPhaseSecondsAndCalls) {
  PhaseProfiler profiler;
  for (const char* phase : {"simulate", "simulate", "analyze"}) {
    const auto scope = profiler.measure(phase);
  }
  MetricsRegistry reg;
  profiler.publish(reg);
  const std::vector<MetricsRegistry::Sample> samples = reg.snapshot();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples[0].name, "phase.analyze.calls");
  EXPECT_EQ(samples[0].kind, MetricsRegistry::Kind::kCounter);
  EXPECT_DOUBLE_EQ(samples[0].value, 1.0);
  EXPECT_EQ(samples[1].name, "phase.analyze.seconds");
  EXPECT_EQ(samples[1].kind, MetricsRegistry::Kind::kGauge);
  EXPECT_GE(samples[1].value, 0.0);
  EXPECT_EQ(samples[2].name, "phase.simulate.calls");
  EXPECT_DOUBLE_EQ(samples[2].value, 2.0);
  EXPECT_EQ(samples[3].name, "phase.simulate.seconds");
  EXPECT_EQ(samples[3].kind, MetricsRegistry::Kind::kGauge);
}

// --- TraceBuffer ring ------------------------------------------------------

TEST(TraceBufferTest, HoldsEventsInEmitOrderBelowCapacity) {
  TraceBuffer buf(8);
  for (std::int64_t t = 0; t < 5; ++t) {
    buf.emit(t, TraceCategory::kScheduler, TracePoint::kJobSubmit,
             /*id=*/100 + t, /*a=*/t * 2);
  }
  EXPECT_EQ(buf.size(), 5u);
  EXPECT_EQ(buf.capacity(), 8u);
  EXPECT_EQ(buf.dropped(), 0u);
  EXPECT_EQ(buf.emitted(), 5u);
  const std::vector<TraceEvent> events = buf.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (std::int64_t t = 0; t < 5; ++t) {
    const TraceEvent& e = events[static_cast<std::size_t>(t)];
    EXPECT_EQ(e.sim_time, t);
    EXPECT_EQ(e.id, 100 + t);
    EXPECT_EQ(e.a, t * 2);
    EXPECT_EQ(e.category, TraceCategory::kScheduler);
    EXPECT_EQ(e.phase, TraceEvent::Phase::kInstant);
  }
}

TEST(TraceBufferTest, WraparoundOverwritesOldest) {
  constexpr std::size_t kCapacity = 8;
  constexpr std::int64_t kTotal = 20;  // 12 past capacity
  TraceBuffer buf(kCapacity);
  for (std::int64_t t = 0; t < kTotal; ++t) {
    buf.emit(t, TraceCategory::kEngine, TracePoint::kJobEnd, /*id=*/t);
  }
  EXPECT_EQ(buf.size(), kCapacity);
  EXPECT_EQ(buf.dropped(), kTotal - kCapacity);
  EXPECT_EQ(buf.emitted(), static_cast<std::uint64_t>(kTotal));
  // The survivors are exactly the newest kCapacity events, still
  // oldest-to-newest: pressure changes which prefix survives, never order.
  std::vector<std::int64_t> ids;
  buf.for_each([&ids](const TraceEvent& e) { ids.push_back(e.id); });
  ASSERT_EQ(ids.size(), kCapacity);
  for (std::size_t i = 0; i < kCapacity; ++i) {
    EXPECT_EQ(ids[i], static_cast<std::int64_t>(kTotal - kCapacity + i));
  }
}

TEST(TraceBufferTest, WraparoundIsExactAtCapacityBoundary) {
  TraceBuffer buf(4);
  for (std::int64_t t = 0; t < 4; ++t) {
    buf.emit(t, TraceCategory::kFault, TracePoint::kOutageBegin);
  }
  EXPECT_EQ(buf.dropped(), 0u);  // exactly full, nothing lost yet
  buf.emit(4, TraceCategory::kFault, TracePoint::kOutageEnd);
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.dropped(), 1u);
  EXPECT_EQ(buf.snapshot().front().sim_time, 1);  // event 0 overwritten
  EXPECT_EQ(buf.snapshot().back().sim_time, 4);
}

// --- TraceSpan -------------------------------------------------------------

TEST(TraceSpanTest, EmitsBeginAndEndWithPayloadOnEnd) {
  TraceBuffer buf(16);
  {
    TraceSpan span(&buf, /*sim_time=*/42, TraceCategory::kAnalytics,
                   TracePoint::kClassify, /*id=*/7);
    span.set_payload(/*a=*/350, /*b=*/4);
  }
  const std::vector<TraceEvent> events = buf.snapshot();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent& begin = events[0];
  const TraceEvent& end = events[1];
  EXPECT_EQ(begin.phase, TraceEvent::Phase::kBegin);
  EXPECT_EQ(end.phase, TraceEvent::Phase::kEnd);
  // Both edges carry the construction-time stamp and the subject id; the
  // payload rides only on the end edge.
  EXPECT_EQ(begin.sim_time, 42);
  EXPECT_EQ(end.sim_time, 42);
  EXPECT_EQ(begin.id, 7);
  EXPECT_EQ(end.id, 7);
  EXPECT_EQ(begin.a, 0);
  EXPECT_EQ(end.a, 350);
  EXPECT_EQ(end.b, 4);
  EXPECT_EQ(begin.point, TracePoint::kClassify);
  EXPECT_EQ(end.point, TracePoint::kClassify);
}

TEST(TraceSpanTest, NestedSpansTrackDepth) {
  TraceBuffer buf(16);
  {
    TraceSpan outer(&buf, 0, TraceCategory::kAnalytics,
                    TracePoint::kScenarioRun);
    EXPECT_EQ(buf.depth(), 1u);
    {
      TraceSpan inner(&buf, 0, TraceCategory::kAnalytics,
                      TracePoint::kFeatureExtract);
      EXPECT_EQ(buf.depth(), 2u);
    }
    EXPECT_EQ(buf.depth(), 1u);
  }
  EXPECT_EQ(buf.depth(), 0u);
  const std::vector<TraceEvent> events = buf.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // outer-begin, inner-begin, inner-end, outer-end. Both edges of a span
  // carry the depth *outside* it: a viewer nests by matching B/E pairs.
  EXPECT_EQ(events[0].point, TracePoint::kScenarioRun);
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(events[1].point, TracePoint::kFeatureExtract);
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[2].point, TracePoint::kFeatureExtract);
  EXPECT_EQ(events[2].depth, 1u);
  EXPECT_EQ(events[3].point, TracePoint::kScenarioRun);
  EXPECT_EQ(events[3].depth, 0u);
}

TEST(TraceSpanTest, NullBufferIsNoOp) {
  TraceSpan span(nullptr, 0, TraceCategory::kScheduler,
                 TracePoint::kSchedulePass);
  span.set_payload(1, 2);  // must not crash; nothing to assert beyond that
}

}  // namespace
}  // namespace tg::obs
