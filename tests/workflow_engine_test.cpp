#include "workflow/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "accounting/usage_db.hpp"
#include "util/error.hpp"

namespace tg {
namespace {

struct WfFixture : ::testing::Test {
  Platform platform = mini_platform();
  Engine engine;
  SchedulerPool pool{engine, platform};
  FlowManager flows{engine, platform};
  UsageDatabase db;
  Recorder recorder{platform, db};

  WfFixture() {
    recorder.attach(pool);
    recorder.attach(flows);
  }

  DagTask task(Duration runtime = kHour, int nodes = 1) {
    DagTask t;
    t.nodes = nodes;
    t.actual_runtime = runtime;
    t.requested_walltime = runtime;
    return t;
  }
};

TEST_F(WfFixture, EnsembleRunsAllTasks) {
  WorkflowEngine wf(engine, pool, flows);
  WorkflowResult result;
  bool done = false;
  wf.submit(make_ensemble(6, task()), UserId{1}, ProjectId{1},
            [&](const WorkflowResult& r) {
              result = r;
              done = true;
            });
  engine.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(result.tasks, 6);
  EXPECT_EQ(result.abandoned, 0);
  EXPECT_TRUE(result.success());
  EXPECT_EQ(db.jobs().size(), 6u);
  EXPECT_EQ(wf.active(), 0u);
  for (const auto& r : db.jobs()) EXPECT_TRUE(r.workflow.valid());
}

TEST_F(WfFixture, ChainRespectsOrder) {
  WorkflowEngine wf(engine, pool, flows);
  Dag chain;
  for (int i = 0; i < 4; ++i) {
    chain.add_task(task(kHour));
    if (i > 0) chain.add_edge(i - 1, i);
  }
  wf.submit(std::move(chain), UserId{1}, ProjectId{1});
  engine.run();
  ASSERT_EQ(db.jobs().size(), 4u);
  // Sequential chain of 1h tasks: ends at 1h, 2h, 3h, 4h.
  std::vector<SimTime> ends;
  for (const auto& r : db.jobs()) ends.push_back(r.end_time);
  std::sort(ends.begin(), ends.end());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ends[i], static_cast<SimTime>(i + 1) * kHour);
  }
}

TEST_F(WfFixture, FanOutFanInMakespan) {
  WorkflowEngine wf(engine, pool, flows);
  WorkflowResult result;
  // setup 1h -> 4 members 2h in parallel -> merge 1h. ClusterA has 16
  // nodes so all members run concurrently: makespan 4h.
  wf.submit(make_fan_out_fan_in(4, task(kHour), task(2 * kHour), task(kHour)),
            UserId{1}, ProjectId{1},
            [&](const WorkflowResult& r) { result = r; });
  engine.run();
  EXPECT_EQ(result.makespan(), 4 * kHour);
  EXPECT_EQ(db.jobs().size(), 6u);
}

TEST_F(WfFixture, PinnedPlacementHonoured) {
  WorkflowEngine wf(engine, pool, flows);
  DagTask t = task();
  t.resource = platform.compute()[1].id;  // ClusterB
  wf.submit(make_ensemble(3, t), UserId{1}, ProjectId{1});
  engine.run();
  ASSERT_EQ(db.jobs().size(), 3u);
  for (const auto& r : db.jobs()) {
    EXPECT_EQ(r.resource, platform.compute()[1].id);
  }
}

TEST_F(WfFixture, CrossSiteDataDependencyMovesBytes) {
  WorkflowEngine wf(engine, pool, flows);
  Dag dag;
  DagTask producer = task(kHour);
  producer.resource = platform.compute()[0].id;  // SiteA
  producer.output_bytes = 5e9;
  DagTask consumer = task(kHour);
  consumer.resource = platform.compute()[1].id;  // SiteB
  const int p = dag.add_task(producer);
  const int c = dag.add_task(consumer);
  dag.add_edge(p, c);
  WorkflowResult result;
  wf.submit(std::move(dag), UserId{1}, ProjectId{1},
            [&](const WorkflowResult& r) { result = r; });
  engine.run();
  EXPECT_EQ(db.transfers().size(), 1u);
  EXPECT_DOUBLE_EQ(result.bytes_moved, 5e9);
  // Consumer started only after the 5 GB transfer (10 Gb/s link -> 4 s).
  ASSERT_EQ(db.jobs().size(), 2u);
  SimTime consumer_start = 0;
  for (const auto& r : db.jobs()) {
    if (r.resource == platform.compute()[1].id) consumer_start = r.start_time;
  }
  EXPECT_GE(consumer_start, kHour + 4 * kSecond);
}

TEST_F(WfFixture, SameSiteDependencySkipsTransfer) {
  WorkflowEngine wf(engine, pool, flows);
  Dag dag;
  DagTask producer = task(kHour);
  producer.resource = platform.compute()[0].id;
  producer.output_bytes = 5e9;
  DagTask consumer = task(kHour);
  consumer.resource = platform.compute()[0].id;
  const int p = dag.add_task(producer);
  const int c = dag.add_task(consumer);
  dag.add_edge(p, c);
  wf.submit(std::move(dag), UserId{1}, ProjectId{1});
  engine.run();
  EXPECT_TRUE(db.transfers().empty());
}

TEST_F(WfFixture, FailedTaskRetriedOnce) {
  WorkflowEngine wf(engine, pool, flows, /*retry_limit=*/1);
  DagTask t = task(kHour);
  t.fails = true;
  t.fail_after = 10 * kMinute;
  WorkflowResult result;
  wf.submit(make_ensemble(1, t), UserId{1}, ProjectId{1},
            [&](const WorkflowResult& r) { result = r; });
  engine.run();
  EXPECT_EQ(result.failures, 1);
  EXPECT_EQ(result.abandoned, 0);
  EXPECT_TRUE(result.success());
  EXPECT_EQ(db.jobs().size(), 2u);  // failure + successful retry
}

TEST_F(WfFixture, ZeroRetriesAbandons) {
  WorkflowEngine wf(engine, pool, flows, /*retry_limit=*/0);
  DagTask t = task(kHour);
  t.fails = true;
  t.fail_after = 10 * kMinute;
  Dag dag;
  const int a = dag.add_task(t);
  const int b = dag.add_task(task());
  dag.add_edge(a, b);
  WorkflowResult result;
  wf.submit(std::move(dag), UserId{1}, ProjectId{1},
            [&](const WorkflowResult& r) { result = r; });
  engine.run();
  EXPECT_EQ(result.abandoned, 1);
  EXPECT_FALSE(result.success());
  // The dependent still ran (workflow terminates rather than hanging).
  EXPECT_EQ(db.jobs().size(), 2u);
}

TEST_F(WfFixture, EmptyDagRejected) {
  WorkflowEngine wf(engine, pool, flows);
  EXPECT_THROW(wf.submit(Dag{}, UserId{1}, ProjectId{1}), PreconditionError);
}

TEST_F(WfFixture, ConcurrentWorkflowsIsolated) {
  WorkflowEngine wf(engine, pool, flows);
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    wf.submit(make_ensemble(3, task(30 * kMinute)), UserId{i}, ProjectId{1},
              [&](const WorkflowResult&) { ++done; });
  }
  engine.run();
  EXPECT_EQ(done, 5);
  EXPECT_EQ(db.jobs().size(), 15u);
  // Each workflow id distinct.
  std::set<WorkflowId> ids;
  for (const auto& r : db.jobs()) ids.insert(r.workflow);
  EXPECT_EQ(ids.size(), 5u);
}

}  // namespace
}  // namespace tg
