#include "workflow/dag.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace tg {
namespace {

DagTask task(int nodes = 1) {
  DagTask t;
  t.nodes = nodes;
  return t;
}

TEST(Dag, AddTaskAndEdges) {
  Dag d;
  const int a = d.add_task(task());
  const int b = d.add_task(task());
  const int c = d.add_task(task());
  d.add_edge(a, b);
  d.add_edge(a, c);
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d.children(a), (std::vector<int>{b, c}));
  EXPECT_EQ(d.parents(c), (std::vector<int>{a}));
  EXPECT_EQ(d.roots(), (std::vector<int>{a}));
  d.validate();
}

TEST(Dag, EdgeValidation) {
  Dag d;
  const int a = d.add_task(task());
  EXPECT_THROW(d.add_edge(a, a), PreconditionError);
  EXPECT_THROW(d.add_edge(a, 5), PreconditionError);
  EXPECT_THROW(d.add_edge(-1, a), PreconditionError);
  EXPECT_THROW(d.add_task(task(0)), PreconditionError);
}

TEST(Dag, CycleDetected) {
  Dag d;
  const int a = d.add_task(task());
  const int b = d.add_task(task());
  const int c = d.add_task(task());
  d.add_edge(a, b);
  d.add_edge(b, c);
  d.add_edge(c, a);
  EXPECT_THROW(d.validate(), PreconditionError);
}

TEST(Dag, SelfContainedDiamondValidates) {
  Dag d;
  const int a = d.add_task(task());
  const int b = d.add_task(task());
  const int c = d.add_task(task());
  const int e = d.add_task(task());
  d.add_edge(a, b);
  d.add_edge(a, c);
  d.add_edge(b, e);
  d.add_edge(c, e);
  d.validate();
  EXPECT_EQ(d.parents(e).size(), 2u);
}

TEST(DagTemplates, Ensemble) {
  const Dag d = make_ensemble(10, task(2));
  EXPECT_EQ(d.size(), 10u);
  EXPECT_TRUE(d.edges().empty());
  EXPECT_EQ(d.roots().size(), 10u);
  for (const auto& t : d.tasks()) EXPECT_EQ(t.nodes, 2);
}

TEST(DagTemplates, FanOutFanIn) {
  const Dag d = make_fan_out_fan_in(4, task(1), task(2), task(3));
  EXPECT_EQ(d.size(), 6u);  // setup + 4 + merge
  EXPECT_EQ(d.roots(), (std::vector<int>{0}));
  EXPECT_EQ(d.children(0).size(), 4u);
  EXPECT_EQ(d.parents(5).size(), 4u);
  EXPECT_EQ(d.tasks()[5].nodes, 3);
  d.validate();
}

class EnsembleWidths : public ::testing::TestWithParam<int> {};

TEST_P(EnsembleWidths, SizeMatchesWidth) {
  const Dag d = make_ensemble(GetParam(), task());
  EXPECT_EQ(d.size(), static_cast<std::size_t>(GetParam()));
  EXPECT_EQ(d.roots().size(), static_cast<std::size_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Widths, EnsembleWidths,
                         ::testing::Values(1, 2, 16, 100));

}  // namespace
}  // namespace tg
