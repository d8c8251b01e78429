#include "workflow/dag.hpp"

#include <algorithm>
#include <queue>

#include "util/error.hpp"

namespace tg {

int Dag::add_task(DagTask task) {
  TG_REQUIRE(task.nodes >= 1, "task width must be >= 1");
  tasks_.push_back(std::move(task));
  return static_cast<int>(tasks_.size()) - 1;
}

void Dag::add_edge(int from, int to) {
  TG_REQUIRE(from >= 0 && from < static_cast<int>(tasks_.size()) &&
                 to >= 0 && to < static_cast<int>(tasks_.size()),
             "edge endpoints out of range");
  TG_REQUIRE(from != to, "self edge");
  edges_.push_back(DagEdge{from, to});
}

std::vector<int> Dag::children(int task) const {
  std::vector<int> out;
  for (const auto& e : edges_) {
    if (e.from == task) out.push_back(e.to);
  }
  return out;
}

std::vector<int> Dag::parents(int task) const {
  std::vector<int> out;
  for (const auto& e : edges_) {
    if (e.to == task) out.push_back(e.from);
  }
  return out;
}

std::vector<int> Dag::roots() const {
  std::vector<bool> has_parent(tasks_.size(), false);
  for (const auto& e : edges_) has_parent[static_cast<std::size_t>(e.to)] = true;
  std::vector<int> out;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (!has_parent[i]) out.push_back(static_cast<int>(i));
  }
  return out;
}

void Dag::validate() const {
  std::vector<int> indegree(tasks_.size(), 0);
  for (const auto& e : edges_) ++indegree[static_cast<std::size_t>(e.to)];
  std::queue<int> q;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (indegree[i] == 0) q.push(static_cast<int>(i));
  }
  std::size_t seen = 0;
  while (!q.empty()) {
    const int t = q.front();
    q.pop();
    ++seen;
    for (int c : children(t)) {
      if (--indegree[static_cast<std::size_t>(c)] == 0) q.push(c);
    }
  }
  TG_REQUIRE(seen == tasks_.size(), "workflow DAG contains a cycle");
}

Dag make_ensemble(int width, DagTask prototype) {
  TG_REQUIRE(width >= 1, "ensemble width must be >= 1");
  Dag dag;
  for (int i = 0; i < width; ++i) dag.add_task(prototype);
  return dag;
}

Dag make_fan_out_fan_in(int width, DagTask setup, DagTask member,
                        DagTask merge) {
  TG_REQUIRE(width >= 1, "fan width must be >= 1");
  Dag dag;
  const int s = dag.add_task(std::move(setup));
  std::vector<int> members;
  members.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    const int m = dag.add_task(member);
    dag.add_edge(s, m);
    members.push_back(m);
  }
  const int g = dag.add_task(std::move(merge));
  for (int m : members) dag.add_edge(m, g);
  return dag;
}

}  // namespace tg
