// Workflow DAGs: tasks with precedence edges and inter-task data volumes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "des/time.hpp"
#include "util/ids.hpp"

namespace tg {

/// One task of a workflow. If `resource` is invalid the engine picks a
/// resource at submit time via its selector.
struct DagTask {
  int nodes = 1;
  Duration requested_walltime = kHour;
  Duration actual_runtime = 30 * kMinute;
  ResourceId resource;      ///< pinned placement (optional)
  double output_bytes = 0;  ///< data shipped along each outgoing edge
  bool fails = false;
  Duration fail_after = 0;
};

struct DagEdge {
  int from = 0;
  int to = 0;
};

class Dag {
 public:
  /// Adds a task, returning its index.
  int add_task(DagTask task);
  /// Adds a precedence edge from task `from` to task `to`.
  void add_edge(int from, int to);

  [[nodiscard]] const std::vector<DagTask>& tasks() const { return tasks_; }
  [[nodiscard]] const std::vector<DagEdge>& edges() const { return edges_; }
  [[nodiscard]] std::size_t size() const { return tasks_.size(); }

  /// Children / parents of a task.
  [[nodiscard]] std::vector<int> children(int task) const;
  [[nodiscard]] std::vector<int> parents(int task) const;
  /// Tasks with no parents.
  [[nodiscard]] std::vector<int> roots() const;
  /// Validates acyclicity (topological sort); throws on a cycle.
  void validate() const;

 private:
  std::vector<DagTask> tasks_;
  std::vector<DagEdge> edges_;
};

// ---- Template builders for the common TeraGrid workflow shapes ----

/// Independent bag of `width` identical tasks (parameter sweep / ensemble).
[[nodiscard]] Dag make_ensemble(int width, DagTask prototype);

/// Fan-out/fan-in: a setup task, `width` parallel tasks, a merge task
/// (e.g. EnKF-style ensemble with assimilation step).
[[nodiscard]] Dag make_fan_out_fan_in(int width, DagTask setup,
                                      DagTask member, DagTask merge);

}  // namespace tg
