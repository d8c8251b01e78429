#include "workflow/engine.hpp"

#include "util/error.hpp"

namespace tg {

WorkflowEngine::WorkflowEngine(Engine& engine, SchedulerPool& pool,
                               FlowManager& flows, int retry_limit)
    : engine_(engine), pool_(pool), flows_(flows), retry_limit_(retry_limit) {
  TG_REQUIRE(retry_limit >= 0, "retry limit must be non-negative");
  pool_.add_on_end_all([this](const Job& job) { on_job_end(job); });
}

WorkflowId WorkflowEngine::submit(Dag dag, UserId user, ProjectId project,
                                  DoneCallback done) {
  dag.validate();
  TG_REQUIRE(dag.size() > 0, "empty workflow");
  const WorkflowId id{next_id_++};

  Instance inst;
  inst.result.id = id;
  inst.result.user = user;
  inst.result.submit_time = engine_.now();
  inst.result.tasks = static_cast<int>(dag.size());
  inst.project = project;
  inst.missing_parents.assign(dag.size(), 0);
  inst.pending_transfers.assign(dag.size(), 0);
  inst.placement.assign(dag.size(), ResourceId{});
  inst.attempts.assign(dag.size(), 0);
  inst.remaining = static_cast<int>(dag.size());
  inst.done = std::move(done);
  for (const DagEdge& e : dag.edges()) {
    ++inst.missing_parents[static_cast<std::size_t>(e.to)];
  }
  inst.dag = std::move(dag);

  const auto roots = inst.dag.roots();
  instances_.emplace(id, std::move(inst));
  for (int r : roots) ready_task(id, r);
  return id;
}

void WorkflowEngine::ready_task(WorkflowId wf, int task) {
  Instance& inst = instances_.at(wf);
  const DagTask& t = inst.dag.tasks()[static_cast<std::size_t>(task)];

  // Placement: pinned, or earliest-estimated-start selection.
  ResourceId target = t.resource;
  if (!target.valid()) {
    target = selector_.select(pool_, t.nodes, t.requested_walltime);
  }
  inst.placement[static_cast<std::size_t>(task)] = target;

  // Ship inter-site inputs before launch.
  const SiteId dst_site = pool_.platform().compute_at(target).site;
  for (int p : inst.dag.parents(task)) {
    const DagTask& pt = inst.dag.tasks()[static_cast<std::size_t>(p)];
    if (pt.output_bytes <= 0) continue;
    const ResourceId psrc = inst.placement[static_cast<std::size_t>(p)];
    TG_CHECK(psrc.valid(), "parent finished without a placement");
    const SiteId src_site = pool_.platform().compute_at(psrc).site;
    if (src_site == dst_site) continue;
    ++inst.pending_transfers[static_cast<std::size_t>(task)];
    inst.result.bytes_moved += pt.output_bytes;
    flows_.start_transfer(
        src_site, dst_site, pt.output_bytes, inst.result.user, inst.project,
        [this, wf, task](const Flow&) {
          Instance& in = instances_.at(wf);
          if (--in.pending_transfers[static_cast<std::size_t>(task)] == 0) {
            launch_task(wf, task);
          }
        });
  }
  if (inst.pending_transfers[static_cast<std::size_t>(task)] == 0) {
    launch_task(wf, task);
  }
}

void WorkflowEngine::launch_task(WorkflowId wf, int task) {
  Instance& inst = instances_.at(wf);
  const DagTask& t = inst.dag.tasks()[static_cast<std::size_t>(task)];
  const ResourceId target = inst.placement[static_cast<std::size_t>(task)];
  ++inst.attempts[static_cast<std::size_t>(task)];

  JobRequest req;
  req.user = inst.result.user;
  req.project = inst.project;
  req.nodes = t.nodes;
  req.requested_walltime = t.requested_walltime;
  req.actual_runtime = t.actual_runtime;
  // Failure injection applies to the first attempt only; retries succeed,
  // modelling transient grid failures.
  if (t.fails && inst.attempts[static_cast<std::size_t>(task)] == 1) {
    req.fails = true;
    req.fail_after = t.fail_after;
  }
  req.workflow = wf;
  const JobId jid = pool_.at(target).submit(std::move(req));
  job_task_.emplace(jid, std::make_pair(wf, task));
}

void WorkflowEngine::on_job_end(const Job& job) {
  const auto it = job_task_.find(job.id);
  if (it == job_task_.end()) return;  // not a workflow job
  // An outage-requeued attempt is not the end of the job: the scheduler
  // will run it again under the same JobId, so keep the mapping and hold
  // the task's children until a terminal state arrives.
  if (job.state == JobState::kRequeued) return;
  const auto [wf, task] = it->second;
  job_task_.erase(it);

  Instance& inst = instances_.at(wf);
  if (job.state == JobState::kCompleted) {
    task_done(wf, task);
    return;
  }
  // Failed or killed: retry, else abandon.
  ++inst.result.failures;
  if (inst.attempts[static_cast<std::size_t>(task)] <= retry_limit_) {
    if (job.state == JobState::kKilledByOutage) {
      // The placement's machine is degraded; reselect (unless the task is
      // pinned) instead of resubmitting into the outage.
      const DagTask& t = inst.dag.tasks()[static_cast<std::size_t>(task)];
      if (!t.resource.valid()) {
        inst.placement[static_cast<std::size_t>(task)] =
            selector_.select(pool_, t.nodes, t.requested_walltime);
      }
    }
    launch_task(wf, task);
    return;
  }
  ++inst.result.abandoned;
  task_done(wf, task);  // release dependents so the workflow terminates
}

void WorkflowEngine::task_done(WorkflowId wf, int task) {
  Instance& inst = instances_.at(wf);
  --inst.remaining;
  for (int c : inst.dag.children(task)) {
    if (--inst.missing_parents[static_cast<std::size_t>(c)] == 0) {
      ready_task(wf, c);
    }
  }
  finish_if_done(wf);
}

void WorkflowEngine::finish_if_done(WorkflowId wf) {
  auto it = instances_.find(wf);
  if (it == instances_.end() || it->second.remaining > 0) return;
  Instance inst = std::move(it->second);
  instances_.erase(it);
  inst.result.end_time = engine_.now();
  if (inst.done) inst.done(inst.result);
}

}  // namespace tg
