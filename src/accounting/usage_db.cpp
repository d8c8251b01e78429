#include "accounting/usage_db.hpp"

#include "accounting/charge.hpp"

namespace tg {

namespace {

/// The records `visit` yields, in order. A counting pass sizes the vector
/// first: repeating the visit is cheaper than growing into it.
template <class Visit>
std::vector<const JobRecord*> collect(const Visit& visit) {
  std::size_t n = 0;
  visit([&n](const JobRecord&) { ++n; });
  std::vector<const JobRecord*> out;
  out.reserve(n);
  visit([&out](const JobRecord& r) { out.push_back(&r); });
  return out;
}

}  // namespace

std::vector<const JobRecord*> UsageDatabase::jobs_of(UserId user) const {
  return collect([&](const auto& fn) { job_log_.for_each_of(user, fn); });
}

std::vector<const JobRecord*> UsageDatabase::jobs_ending_in(
    SimTime from, SimTime to) const {
  return collect(
      [&](const auto& fn) { job_log_.for_each_ending_in(from, to, fn); });
}

UserWindowRecords UsageDatabase::records_of(UserId user, SimTime from,
                                            SimTime to) const {
  UserWindowRecords out;
  records_of(user, from, to, out);
  return out;
}

void UsageDatabase::records_of(UserId user, SimTime from, SimTime to,
                               UserWindowRecords& out) const {
  out.clear();
  job_log_.for_each_of(user, from, to,
                       [&](const JobRecord& r) { out.jobs.push_back(&r); });
  transfer_log_.for_each_of(
      user, from, to,
      [&](const TransferRecord& r) { out.transfers.push_back(&r); });
  session_log_.for_each_of(
      user, from, to,
      [&](const SessionRecord& r) { out.sessions.push_back(&r); });
}

Recorder::Recorder(const Platform& platform, UsageDatabase& db,
                   AllocationLedger* ledger)
    : platform_(platform), db_(db), ledger_(ledger) {}

void Recorder::attach(SchedulerPool& pool) {
  pool.add_on_end_all([this](const Job& job) { on_job_end(job); });
}

void Recorder::attach(FlowManager& flows) {
  flows.set_transfer_observer([this](const Flow& flow) {
    TransferRecord r;
    r.transfer = flow.id;
    r.src = flow.src;
    r.dst = flow.dst;
    r.user = flow.user;
    r.project = flow.project;
    r.bytes = flow.total_bytes;
    r.submit_time = flow.submitted;
    r.end_time = flow.completed;
    db_.add(r);
  });
}

void Recorder::record_session(UserId user, ResourceId resource, SimTime start,
                              SimTime end, bool viz) {
  SessionRecord s;
  s.user = user;
  s.resource = resource;
  s.start_time = start;
  s.end_time = end;
  s.viz = viz;
  db_.add(s);
}

void Recorder::on_job_end(const Job& job) {
  if (job.state == JobState::kCancelled) return;  // never ran, no record
  const ComputeResource& res = platform_.compute_at(job.resource);
  const Charge charge = charge_for(job, res);

  JobRecord r;
  r.job = job.id;
  r.resource = job.resource;
  r.user = job.req.user;
  r.project = job.req.project;
  r.submit_time = job.submit_time;
  r.start_time = job.start_time;
  r.end_time = job.end_time;
  r.nodes = job.req.nodes;
  r.cores_per_node = res.cores_per_node;
  r.requested_walltime = job.req.requested_walltime;
  r.final_state = job.state;
  r.disposition = disposition_of(job.state);
  r.charged_su = charge.su;
  r.charged_nu = charge.nu;
  r.gateway = job.req.gateway;
  r.gateway_end_user = job.req.gateway_end_user;
  r.workflow = job.req.workflow;
  r.interactive = job.req.interactive;
  r.coallocated = job.req.coallocated;
  r.viz_resource = res.interactive_viz;
  r.bytes_read = job.req.bytes_read;
  r.bytes_from_cache = job.req.bytes_from_cache;
  r.stage_in = job.req.stage_in;
  if (ledger_ != nullptr) ledger_->debit(r.project, r.charged_nu);
  db_.add(r);
}

}  // namespace tg
