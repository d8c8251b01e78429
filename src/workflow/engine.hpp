// The workflow/ensemble execution engine (DAGMan/Pegasus analogue).
//
// Executes Dags over the scheduler pool: tasks whose parents have finished
// are placed (pinned resource, or earliest-start selection), inter-site
// data dependencies are shipped over the WAN first, and failed tasks are
// retried a configurable number of times. Every job it submits carries the
// workflow tag that accounting records and the modality classifier use.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "des/engine.hpp"
#include "meta/selector.hpp"
#include "net/flow.hpp"
#include "sched/pool.hpp"
#include "workflow/dag.hpp"

namespace tg {

struct WorkflowResult {
  WorkflowId id;
  UserId user;
  SimTime submit_time = 0;
  SimTime end_time = 0;
  int tasks = 0;
  int failures = 0;      ///< task failures observed (before retries)
  int abandoned = 0;     ///< tasks given up after exhausting retries
  double bytes_moved = 0.0;

  [[nodiscard]] Duration makespan() const { return end_time - submit_time; }
  [[nodiscard]] bool success() const { return abandoned == 0; }
};

class WorkflowEngine {
 public:
  using DoneCallback = std::function<void(const WorkflowResult&)>;

  WorkflowEngine(Engine& engine, SchedulerPool& pool, FlowManager& flows,
                 int retry_limit = 1);

  /// Starts executing `dag` on behalf of (user, project). `done` fires when
  /// every task has completed or been abandoned.
  WorkflowId submit(Dag dag, UserId user, ProjectId project,
                    DoneCallback done = nullptr);

  [[nodiscard]] std::size_t active() const { return instances_.size(); }

 private:
  struct Instance {
    WorkflowResult result;
    Dag dag;
    ProjectId project;
    std::vector<int> missing_parents;   ///< per task
    std::vector<int> pending_transfers; ///< per task, in-flight inputs
    std::vector<ResourceId> placement;  ///< per task, once launched
    std::vector<int> attempts;          ///< per task
    int remaining = 0;                  ///< tasks not yet done/abandoned
    DoneCallback done;
  };

  void ready_task(WorkflowId wf, int task);
  void launch_task(WorkflowId wf, int task);
  void on_job_end(const Job& job);
  void task_done(WorkflowId wf, int task);
  void finish_if_done(WorkflowId wf);

  Engine& engine_;
  SchedulerPool& pool_;
  FlowManager& flows_;
  ResourceSelector selector_;
  int retry_limit_;
  std::map<WorkflowId, Instance> instances_;
  std::map<JobId, std::pair<WorkflowId, int>> job_task_;
  WorkflowId::rep next_id_ = 0;
};

}  // namespace tg
