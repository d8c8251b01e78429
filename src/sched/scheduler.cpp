#include "sched/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/error.hpp"

namespace tg {

const char* to_string(SchedPolicy p) {
  switch (p) {
    case SchedPolicy::kFcfs: return "FCFS";
    case SchedPolicy::kEasyBackfill: return "EASY";
    case SchedPolicy::kConservativeBackfill: return "Conservative";
  }
  return "unknown";
}

namespace {
/// Validates the id before shifting: run from the member initializer, where
/// an out-of-range id would otherwise overflow (UB) before any ctor-body
/// check could reject it.
JobId::rep job_id_base_for(const ComputeResource& resource) {
  TG_REQUIRE(resource.id.valid() && resource.id.value() <= kMaxResourceId,
             "resource id " << resource.id
                            << " outside the job-id folding range [0, "
                            << kMaxResourceId << "]");
  return static_cast<JobId::rep>(resource.id.value() + 1)
         << kJobIdResourceShift;
}
}  // namespace

ResourceScheduler::ResourceScheduler(Engine& engine,
                                     const ComputeResource& resource,
                                     SchedulerConfig config,
                                     std::uint32_t shard)
    : engine_(engine),
      resource_(resource),
      config_(config),
      free_nodes_(resource.nodes),
      // Job ids are globally unique: the resource id is folded into the
      // high bits so accounting can key on JobId alone.
      job_id_base_(job_id_base_for(resource)),
      next_job_(job_id_base_),
      shard_(shard) {
  TG_REQUIRE(resource.nodes > 0, "resource has no nodes");
  TG_REQUIRE(config.capability_fraction > 0.0 &&
                 config.capability_fraction <= 1.0,
             "capability_fraction must be in (0,1]");
  TG_REQUIRE(!config.fair_share || config.fair_share_half_life > 0,
             "fair-share half-life must be positive");
}

int ceil_fraction(double fraction, int n) {
  TG_REQUIRE(fraction > 0.0 && fraction <= 1.0,
             "fraction " << fraction << " outside (0,1]");
  TG_REQUIRE(n > 0, "n must be positive");
  // Decompose fraction = mant / 2^shift with integer mant, then take
  // ceil(mant * n / 2^shift) in 128-bit integer arithmetic. This is the
  // exact ceiling of the stored double times n; the old "+ 0.999" hack
  // under-rounded fractional parts below 0.001 and made boundary products
  // depend on FP noise.
  int exp = 0;
  const double mantissa = std::frexp(fraction, &exp);  // in [0.5, 1)
  auto mant = static_cast<std::uint64_t>(std::ldexp(mantissa, 53));
  int shift = 53 - exp;  // >= 52 since fraction <= 1
  while (shift > 0 && (mant & 1u) == 0) {
    mant >>= 1;
    --shift;
  }
  if (shift > 126) return 1;  // fraction < 2^-73: ceil(fraction * n) == 1
  __extension__ using u128 = unsigned __int128;
  const u128 num = static_cast<u128>(mant) * static_cast<std::uint32_t>(n);
  const u128 den = static_cast<u128>(1) << shift;
  return static_cast<int>((num + den - 1) / den);
}

int ResourceScheduler::capability_threshold() const {
  return ceil_fraction(config_.capability_fraction, resource_.nodes);
}

JobId ResourceScheduler::allocate_job_id() {
  TG_REQUIRE(next_job_ - job_id_base_ < kMaxJobsPerResource,
             "job id space exhausted on " << resource_.name << " ("
                                          << kMaxJobsPerResource << " jobs)");
  return JobId{next_job_++};
}

ResourceScheduler::JobSlot* ResourceScheduler::find_slot(JobId id) {
  if (!id.valid()) return nullptr;
  const auto local = static_cast<std::uint64_t>(id.value() - job_id_base_);
  if (local >= slot_index_.size()) return nullptr;
  const std::uint32_t slot = slot_index_[local];
  return slot == kNoSlot ? nullptr : &slots_[slot];
}

const ResourceScheduler::JobSlot* ResourceScheduler::find_slot(
    JobId id) const {
  return const_cast<ResourceScheduler*>(this)->find_slot(id);
}

ResourceScheduler::JobSlot& ResourceScheduler::slot_at(JobId id) {
  JobSlot* s = find_slot(id);
  TG_CHECK(s != nullptr, "job " << id << " is not live on " << resource_.name);
  return *s;
}

const ResourceScheduler::JobSlot& ResourceScheduler::slot_at(JobId id) const {
  return const_cast<ResourceScheduler*>(this)->slot_at(id);
}

ResourceScheduler::JobSlot& ResourceScheduler::acquire_slot(JobId id) {
  const auto local = static_cast<std::size_t>(id.value() - job_id_base_);
  if (local >= slot_index_.size()) slot_index_.resize(local + 1, kNoSlot);
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slot_index_[local] = slot;
  JobSlot& s = slots_[slot];
  s.live = true;
  return s;
}

void ResourceScheduler::release_slot(JobId id) {
  const auto local = static_cast<std::size_t>(id.value() - job_id_base_);
  const std::uint32_t slot = slot_index_[local];
  slot_index_[local] = kNoSlot;
  JobSlot& s = slots_[slot];
  TG_CHECK(s.running_pos < 0, "releasing a slot still tracked as running");
  s.job = Job{};
  s.end_event = kInvalidEvent;
  s.reservation = ReservationId{};
  s.live = false;
  free_slots_.push_back(slot);
}

Duration ResourceScheduler::planned_duration(const Job& job) const {
  return job.req.requested_walltime;
}

void ResourceScheduler::notify_start(const Job& job) {
  for (const auto& cb : on_start_) cb(job);
}

void ResourceScheduler::notify_end(const Job& job) {
  for (const auto& cb : on_end_) cb(job);
}

void ResourceScheduler::add_feedback_queued() {
  if (feedback_queued_++ == 0) engine_.serialize_partition(shard_, true);
}

void ResourceScheduler::remove_feedback_queued() {
  TG_CHECK(feedback_queued_ > 0, "feedback queue count underflow");
  if (--feedback_queued_ == 0) engine_.serialize_partition(shard_, false);
}

JobId ResourceScheduler::submit(JobRequest request) {
  TG_REQUIRE(request.nodes >= 1 && request.nodes <= resource_.nodes,
             "job width " << request.nodes << " invalid for "
                          << resource_.name << " (" << resource_.nodes
                          << " nodes)");
  TG_REQUIRE(request.requested_walltime > 0 &&
                 request.requested_walltime <= resource_.max_walltime,
             "requested walltime " << request.requested_walltime
                                   << " outside limits of " << resource_.name);
  // Under a drain policy every run window is at most one period long; a
  // longer job could never legally start (it would straddle a fence
  // wherever it was placed), so refuse it up front.
  TG_REQUIRE(config_.drain_period <= 0 ||
                 request.requested_walltime <= config_.drain_period,
             "requested walltime " << request.requested_walltime
                                   << " exceeds the drain period of "
                                   << resource_.name);
  TG_REQUIRE(request.actual_runtime > 0, "actual runtime must be positive");

  const JobId id = allocate_job_id();
  Job& job = acquire_slot(id).job;
  job.id = id;
  job.resource = resource_.id;
  job.req = std::move(request);
  job.submit_time = engine_.now();
  job.state = JobState::kQueued;
  queue_.push_back(id);
  if (is_feedback(job.req)) add_feedback_queued();
  if (trace_ != nullptr) {
    trace_->emit(job.submit_time, obs::TraceCategory::kScheduler,
                 obs::TracePoint::kJobSubmit, id.value(), job.req.nodes,
                 job.req.requested_walltime);
  }
  // Incremental append: a live plan absorbs the newcomer by planning it
  // against the cached profile (O(profile), not a full replan). When the
  // plan window is already full the entry just waits beyond the cursor.
  if (plan_.valid && extend_plan() > 0) metrics_.record_replan_incremental();
  request_pass();
  return id;
}

bool ResourceScheduler::queue_entry_live(JobId id) const {
  // A preempted job awaiting its backoff is kQueued but must not be
  // schedulable through the stale entry of its previous attempt.
  const JobSlot* s = find_slot(id);
  return s != nullptr && s->job.state == JobState::kQueued &&
         !s->job.requeue_pending;
}

void ResourceScheduler::compact_queue() {
  if (queue_.size() < 64 || queue_tombstones_ * 2 <= queue_.size()) return;
  std::erase_if(queue_, [this](JobId id) { return !queue_entry_live(id); });
  queue_tombstones_ = 0;
  queue_front_ = 0;  // indices shifted; the dead prefix is gone anyway
  invalidate_plan();  // the plan cursor indexes into the old queue_ layout
}

void ResourceScheduler::untrack_running(JobSlot& s) {
  if (s.running_pos < 0) return;
  const auto pos = static_cast<std::size_t>(s.running_pos);
  const JobId moved = running_ids_.back();
  running_ids_[pos] = moved;
  running_ids_.pop_back();
  if (pos < running_ids_.size()) {
    slot_at(moved).running_pos = static_cast<std::int32_t>(pos);
  }
  s.running_pos = -1;
}

bool ResourceScheduler::cancel(JobId id) {
  JobSlot* s = find_slot(id);
  if (s == nullptr || s->job.state != JobState::kQueued) return false;
  // Plan upkeep while the job's width/walltime are still at hand.
  // Reservation-attached and backoff-pending jobs are never planned.
  if (plan_.valid && !s->reservation.valid() && !s->job.requeue_pending) {
    if (!plan_.jobs.empty() && plan_.jobs.back() == id) {
      // Un-plan the tail entry in place: give its window back and retry
      // any horizon cut (the freed window may pull the cut job in).
      const Duration dur = planned_duration(s->job);
      const SimTime st = plan_.starts.back();
      plan_.profile.subtract(st, st + dur, -s->job.req.nodes);
      plan_.jobs.pop_back();
      plan_.starts.pop_back();
      plan_.horizon_cut = false;
    } else if (std::find(plan_.jobs.begin(), plan_.jobs.end(), id) !=
               plan_.jobs.end()) {
      // A mid-plan hole shifts every later planned start.
      invalidate_plan();
    }
    // Unplanned entries just tombstone; the cursor scan skips them.
  }
  Job job = std::move(s->job);
  const ReservationId res = s->reservation;
  release_slot(id);
  if (res.valid()) {
    // Reservation-attached jobs wait on their window, not in queue_;
    // detach so the reservation opens empty instead of dangling.
    reservations_.at(res.value()).attached_job = JobId{};
  } else if (job.requeue_pending) {
    // Preempted and awaiting its backoff: not in queue_, so there is no
    // entry to tombstone; the pending requeue event finds the job gone.
  } else {
    if (is_feedback(job.req)) remove_feedback_queued();
    ++queue_tombstones_;  // entry stays in queue_ until compaction
    compact_queue();
  }
  job.state = JobState::kCancelled;
  job.end_time = engine_.now();
  if (trace_ != nullptr) {
    trace_->emit(job.end_time, obs::TraceCategory::kScheduler,
                 obs::TracePoint::kJobCancel, id.value());
  }
  notify_end(job);
  return true;
}

ReservationId ResourceScheduler::reserve(SimTime start, Duration duration,
                                         int nodes) {
  TG_REQUIRE(start >= engine_.now(), "reservation in the past");
  TG_REQUIRE(duration > 0, "reservation duration must be positive");
  TG_REQUIRE(nodes >= 1 && nodes <= resource_.nodes,
             "reservation width invalid");
  // Feasibility against running jobs + existing reservations + fences.
  // Queued jobs never block a reservation: they have no committed start.
  const Profile profile = base_profile();
  if (profile.earliest_fit(nodes, duration, start) != start) {
    return ReservationId{};  // invalid — window not free
  }
  const ReservationId id{next_reservation_++};
  Reservation r;
  r.id = id;
  r.start = start;
  r.end = start + duration;
  r.nodes = nodes;
  reservations_.insert_or_assign(id.value(), r);
  // Default (not completion) priority: at a tick where a running job's
  // planned end coincides with the reservation start, the job's release
  // must be processed before this acquisition.
  engine_.schedule_at(start, [this, id] { on_reservation_start(id); },
                      EventPriority::kDefault,
                      EventBinding{shard_, EventClass::kBarrier});
  // A new blocking window can invalidate planned backfill; re-plan.
  invalidate_plan();
  request_pass();
  return id;
}

JobId ResourceScheduler::attach_to_reservation(ReservationId id,
                                               JobRequest request) {
  Reservation* rp = reservations_.find(id.value());
  TG_REQUIRE(rp != nullptr, "unknown reservation " << id);
  Reservation& r = *rp;
  TG_REQUIRE(!r.started, "reservation already started");
  TG_REQUIRE(!r.attached_job.valid(), "reservation already has a job");
  TG_REQUIRE(request.nodes <= r.nodes,
             "job wider than reservation (" << request.nodes << " > "
                                            << r.nodes << ")");
  TG_REQUIRE(request.requested_walltime <= r.end - r.start,
             "job walltime exceeds reservation window");

  const JobId jid = allocate_job_id();
  JobSlot& slot = acquire_slot(jid);
  Job& job = slot.job;
  job.id = jid;
  job.resource = resource_.id;
  job.req = std::move(request);
  job.submit_time = engine_.now();
  job.state = JobState::kQueued;
  slot.reservation = id;
  r.attached_job = jid;
  return jid;
}

bool ResourceScheduler::cancel_reservation(ReservationId id) {
  const Reservation* rp = reservations_.find(id.value());
  if (rp == nullptr || rp->started) return false;
  // Erase before firing callbacks: an observer that places a new
  // reservation would rehash the table out from under `rp`.
  const JobId attached = rp->attached_job;
  reservations_.erase(id.value());
  if (attached.valid()) {
    JobSlot* js = find_slot(attached);
    if (js != nullptr) {
      Job job = std::move(js->job);
      release_slot(attached);
      job.state = JobState::kCancelled;
      job.end_time = engine_.now();
      notify_end(job);
    }
  }
  invalidate_plan();  // the cached profile still holds the freed window
  request_pass();
  return true;
}

Profile ResourceScheduler::base_profile() const {
  const SimTime now = engine_.now();
  Profile profile(now, resource_.nodes);
  // running_ids_ holds exactly the running non-reservation jobs, in no
  // particular order; Profile::subtract is commutative (exact integer
  // deltas), so the assembled profile is identical to a full slab walk —
  // at O(running) instead of O(backlog) cost.
  for (const JobId rid : running_ids_) {
    const JobSlot& s = slot_at(rid);
    // A job holds its nodes until its completion event is *processed*; a
    // planned end <= now (event pending this tick, or overdue kill) must
    // still occupy the profile or a same-tick pass would overcommit.
    const SimTime planned_end =
        std::max(s.job.start_time + planned_duration(s.job), now + 1);
    profile.subtract(now, planned_end, s.job.req.nodes);
  }
  reservations_.for_each([&](std::int64_t, const Reservation& r) {
    if (r.finished) return;
    const SimTime end = r.started ? std::max(r.end, now + 1) : r.end;
    profile.subtract(std::max(r.start, now), end, r.nodes);
  });
  if (nodes_down_ > 0) {
    // Out-of-service nodes block the planner until the advised repair time
    // (or at least past this tick when the repair is overdue).
    profile.subtract(now, std::max(outage_until_, now + 1), nodes_down_);
  }
  if (config_.drain_period > 0) {
    // Analytic periodic fences: the profile evaluates them at any horizon,
    // so a plan pushed out by deep backlog can no longer cross a fence
    // that a materialization cutoff would have hidden.
    profile.set_fence_period(config_.drain_period);
  }
  return profile;
}

double ResourceScheduler::fair_share_usage(UserId user, SimTime now) const {
  if (!user.valid()) return 0.0;
  const auto idx = static_cast<std::size_t>(user.value());
  if (idx >= usage_.size()) return 0.0;
  const auto [value, at] = usage_[idx];
  if (value == 0.0) return 0.0;  // never charged (or fully zero anyway)
  const double decay = std::exp2(
      -static_cast<double>(now - at) /
      static_cast<double>(config_.fair_share_half_life));
  return value * decay;
}

void ResourceScheduler::charge_fair_share(UserId user, double core_seconds,
                                          SimTime now) {
  if (!user.valid()) return;  // replayed traces may omit the user field
  const double current = fair_share_usage(user, now);
  const auto idx = static_cast<std::size_t>(user.value());
  if (idx >= usage_.size()) usage_.resize(idx + 1, {0.0, 0});
  usage_[idx] = {current + core_seconds, now};
}

std::vector<JobId> ResourceScheduler::ordered_queue() const {
  std::vector<JobId> order;
  order.reserve(queue_length());
  for (const JobId id : queue_) {
    if (queue_entry_live(id)) order.push_back(id);
  }
  if (config_.fair_share) {
    const SimTime now = engine_.now();
    std::stable_sort(order.begin(), order.end(), [&](JobId a, JobId b) {
      return fair_share_usage(slot_at(a).job.req.user, now) <
             fair_share_usage(slot_at(b).job.req.user, now);
    });
  }
  if (config_.drain_period > 0) {
    const int thresh = capability_threshold();
    std::stable_partition(order.begin(), order.end(), [&](JobId id) {
      return slot_at(id).job.req.nodes >= thresh;
    });
  }
  return order;
}

void ResourceScheduler::request_pass() {
  if (!engine_.in_event()) {
    // Direct API use (tests, setup code) expects immediate effects; a
    // re-entrant call during a pass still falls out via the in_pass_
    // guard, exactly as before.
    schedule_pass();
    return;
  }
  if (pass_event_ != kInvalidEvent) {
    metrics_.record_replan_coalesced();
    return;  // a pass is already queued for this tick
  }
  // Deferred to kReplan priority: every completion/submission/outage of
  // this tick lands first, then one pass covers them all. The pass is
  // kLocal: while a feedback job is queued (the one case a pass could
  // start something wall-classed) the partition is serialized, so the
  // pass fires on the merged loop anyway.
  pass_event_ = engine_.schedule_at(
      engine_.now(),
      [this] {
        pass_event_ = kInvalidEvent;
        schedule_pass();
      },
      EventPriority::kReplan, EventBinding{shard_, EventClass::kLocal});
}

std::size_t ResourceScheduler::extend_plan() const {
  if (!plan_.valid || plan_.horizon_cut) return 0;
  const auto depth = static_cast<std::size_t>(config_.backfill_depth);
  const SimTime now = engine_.now();
  const SimTime horizon =
      config_.plan_horizon > 0 ? now + config_.plan_horizon : -1;
  std::size_t planned = 0;
  while (plan_.cursor < queue_.size() && plan_.jobs.size() < depth) {
    const JobId id = queue_[plan_.cursor];
    if (!queue_entry_live(id)) {
      ++plan_.cursor;
      continue;
    }
    const Job& job = slot_at(id).job;
    const Duration dur = planned_duration(job);
    const SimTime s = plan_.profile.earliest_fit(job.req.nodes, dur, now);
    TG_CHECK(s >= 0, "job cannot ever fit");
    if (horizon >= 0 && s > horizon && !plan_.jobs.empty()) {
      plan_.horizon_cut = true;  // the cursor stays on this entry
      break;
    }
    plan_.profile.subtract(s, s + dur, job.req.nodes);
    plan_.jobs.push_back(id);
    plan_.starts.push_back(s);
    ++plan_.cursor;
    ++planned;
  }
  return planned;
}

void ResourceScheduler::rebuild_plan() const {
  const SimTime now = engine_.now();
  plan_.profile = base_profile();
  plan_.jobs.clear();
  plan_.starts.clear();
  plan_.cursor = queue_front_;  // everything before it is dead
  plan_.horizon_cut = false;
  plan_.built_at = now;
  metrics_.record_replan_full();
  if (plan_cacheable()) {
    plan_.valid = true;
    extend_plan();
    return;
  }
  // Reference / reordered path: materialize the scheduling order and plan
  // the first backfill_depth jobs. Never reused across events.
  plan_.valid = false;
  const std::vector<JobId> order = ordered_queue();
  const std::size_t scan_end = std::min(
      order.size(), static_cast<std::size_t>(config_.backfill_depth));
  const SimTime horizon =
      config_.plan_horizon > 0 ? now + config_.plan_horizon : -1;
  for (std::size_t i = 0; i < scan_end; ++i) {
    const Job& job = slot_at(order[i]).job;
    const Duration dur = planned_duration(job);
    const SimTime s = plan_.profile.earliest_fit(job.req.nodes, dur, now);
    TG_CHECK(s >= 0, "job cannot ever fit");
    if (horizon >= 0 && s > horizon && !plan_.jobs.empty()) {
      plan_.horizon_cut = true;
      break;
    }
    plan_.profile.subtract(s, s + dur, job.req.nodes);
    plan_.jobs.push_back(order[i]);
    plan_.starts.push_back(s);
  }
}

const ResourceScheduler::PlanCache& ResourceScheduler::ensure_plan() const {
  if (plan_.valid) {
    const SimTime now = engine_.now();
    // A planned start in the past means its gating moment fired no event
    // (a backfill hole opened mid-window); the reference planner would
    // replan such jobs at `now`, so staleness forces a rebuild. Likewise
    // an overdue outage advisory: the cached profile freed those nodes at
    // the advised repair time, but they are still down.
    bool stale = nodes_down_ > 0 && outage_until_ <= now;
    for (std::size_t i = 0; !stale && i < plan_.starts.size(); ++i) {
      stale = plan_.starts[i] < now;
    }
    if (!stale) {
      // The horizon window moves with `now`: a job cut at the last build
      // may fall inside it by now, so retry the cut (one earliest_fit when
      // it still stands — the knob's per-event cost).
      plan_.horizon_cut = false;
      if (extend_plan() > 0) metrics_.record_replan_incremental();
      return plan_;
    }
  }
  rebuild_plan();
  return plan_;
}

void ResourceScheduler::schedule_pass() {
  if (in_pass_) return;  // start_job callbacks may re-enter via submit
  in_pass_ = true;
  const SimTime now = engine_.now();
  obs::TraceSpan pass_span(trace_, now, obs::TraceCategory::kScheduler,
                           obs::TracePoint::kSchedulePass,
                           resource_.id.value());
  int started = 0;

  const auto start_by_id = [&](JobId id) {
    start_job(slot_at(id).job, /*from_reservation=*/false);
    ++queue_tombstones_;  // its queue_ entry is dead now (state kRunning)
    ++started;
  };

  // Compaction rewrites queue_ indices (and thereby the plan cursor), so
  // it runs before planning instead of after. Then advance the dead-prefix
  // pointer: under FIFO churn the head entries die first (start/cancel
  // tombstones), and without the pointer every pass re-walks them.
  compact_queue();
  while (queue_front_ < queue_.size() &&
         !queue_entry_live(queue_[queue_front_])) {
    ++queue_front_;
  }

  // Earliest start gated by something that fires no callback (a drain
  // fence, a reservation window opening); -1 = nothing to wake for.
  SimTime wake = -1;

  if (config_.policy == SchedPolicy::kConservativeBackfill) {
    ensure_plan();
    // Collect due entries first: start callbacks may re-enter (submit,
    // cancel, estimate) and mutate the plan under this loop.
    std::vector<JobId> due;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < plan_.jobs.size(); ++i) {
      if (plan_.starts[i] <= now) {
        due.push_back(plan_.jobs[i]);
      } else {
        plan_.jobs[kept] = plan_.jobs[i];
        plan_.starts[kept] = plan_.starts[i];
        ++kept;
      }
    }
    plan_.jobs.resize(kept);
    plan_.starts.resize(kept);
    in_plan_start_ = true;
    for (const JobId id : due) {
      // An earlier start's callback may have cancelled a later due job.
      if (!queue_entry_live(id)) continue;
      start_by_id(id);
    }
    in_plan_start_ = false;
    if (!plan_.starts.empty()) {
      // The remaining head was planned against exactly the commitments a
      // fresh base profile would show, so its planned start doubles as
      // the head-fit wakeup target — no second profile build.
      wake = plan_.starts.front();
    } else if (queue_length() > 0) {
      // Degenerate window (backfill_depth == 0, or every planned job just
      // left): fall back to an explicit head fit.
      JobId head_id{};
      if (!config_.fair_share && config_.drain_period <= 0) {
        for (std::size_t i = queue_front_; i < queue_.size(); ++i) {
          if (queue_entry_live(queue_[i])) {
            head_id = queue_[i];
            break;
          }
        }
      } else {
        head_id = ordered_queue().front();
      }
      const Job& head = slot_at(head_id).job;
      wake = plan_.profile.earliest_fit(head.req.nodes,
                                        planned_duration(head), now);
    }
  } else {
    Profile profile = base_profile();
    // Lazy ordered-queue prefix: plain FIFO yields live entries on demand
    // and stops at what the policy consumes (started run + head + the
    // backfill window) instead of materializing the whole queue every
    // pass. Fair-share and drain ordering still sort the full queue.
    std::vector<JobId> order;
    const bool fifo = !config_.fair_share && config_.drain_period <= 0;
    if (!fifo) order = ordered_queue();
    // Entries appended by mid-pass callbacks are this pass's business no
    // more than they were when the order was a materialized snapshot.
    const std::size_t limit = fifo ? queue_.size() : order.size();
    std::size_t pos = fifo ? queue_front_ : 0;
    const auto next_live = [&]() -> JobId {
      while (pos < limit) {
        const JobId id = fifo ? queue_[pos] : order[pos];
        ++pos;
        if (queue_entry_live(id)) return id;
      }
      return JobId{};
    };

    JobId head{};
    for (JobId id = next_live(); id.valid(); id = next_live()) {
      const Job& job = slot_at(id).job;
      const Duration dur = planned_duration(job);
      // The profile's value at `now` never exceeds free_nodes_ (it also
      // carries unstarted reservation windows), so a width check is a free
      // short-circuit — on a packed machine the pass does no profile work.
      if (job.req.nodes > free_nodes_ ||
          !profile.fits_at(now, job.req.nodes, dur)) {
        head = id;
        break;
      }
      profile.subtract(now, now + dur, job.req.nodes);
      start_by_id(id);
    }
    if (head.valid()) {
      const Job& headjob = slot_at(head).job;
      const Duration hdur = planned_duration(headjob);
      // At this point the profile holds base + started windows — exactly
      // the fresh base profile the old wakeup tail rebuilt — so the head
      // fit is computed once and reused as both the EASY shadow and the
      // wakeup target.
      const SimTime shadow =
          profile.earliest_fit(headjob.req.nodes, hdur, now);
      TG_CHECK(shadow >= 0, "head job cannot ever fit");
      wake = shadow;
      if (config_.policy == SchedPolicy::kEasyBackfill) {
        // Reserve the head job's slot, then backfill anything that fits
        // now without disturbing it.
        profile.subtract(shadow, shadow + hdur, headjob.req.nodes);
        // free_nodes_ == 0 makes every remaining fits_at provably false
        // (see the width short-circuit above), so stop scanning outright.
        for (int scanned = 0;
             scanned < config_.backfill_depth && free_nodes_ > 0; ++scanned) {
          const JobId id = next_live();
          if (!id.valid()) break;
          const Job& job = slot_at(id).job;
          const Duration dur = planned_duration(job);
          if (job.req.nodes <= free_nodes_ &&
              profile.fits_at(now, job.req.nodes, dur)) {
            profile.subtract(now, now + dur, job.req.nodes);
            start_by_id(id);
          }
        }
      }
    }
  }
  in_pass_ = false;
  pass_span.set_payload(started, static_cast<std::int64_t>(queue_length()));

  // If the head job's start is gated by something that fires no callback,
  // arrange a wakeup pass — otherwise an idle-but-fenced machine would
  // never reconsider its queue. Skip the cancel/reschedule churn when the
  // target tick is unchanged (the common case under a steady backlog).
  if (wake > now && (wakeup_ == kInvalidEvent || wakeup_time_ != wake)) {
    if (wakeup_ != kInvalidEvent) engine_.cancel(wakeup_);
    wakeup_time_ = wake;
    wakeup_ = engine_.schedule_at(
        wake,
        [this] {
          wakeup_ = kInvalidEvent;
          wakeup_time_ = -1;
          schedule_pass();
        },
        EventPriority::kDefault, EventBinding{shard_, EventClass::kLocal});
  }
}

void ResourceScheduler::start_job(Job& job, bool from_reservation) {
  TG_CHECK(job.state == JobState::kQueued, "starting non-queued job");
  if (!from_reservation) {
    TG_CHECK(free_nodes_ >= job.req.nodes, "overcommitted " << resource_.name);
    if (is_feedback(job.req)) remove_feedback_queued();
    free_nodes_ -= job.req.nodes;
    // A plan-driven start occupies exactly the window the cached profile
    // already holds for it; any other start (EASY/FCFS pass, test harness)
    // commits nodes the plan knows nothing about.
    if (!in_plan_start_) invalidate_plan();
    JobSlot& s = slot_at(job.id);
    s.running_pos = static_cast<std::int32_t>(running_ids_.size());
    running_ids_.push_back(job.id);
  }
  job.state = JobState::kRunning;
  job.start_time = engine_.now();
  ++running_count_;
  if (trace_ != nullptr) {
    trace_->emit(job.start_time, obs::TraceCategory::kScheduler,
                 obs::TracePoint::kJobStart, job.id.value(), job.req.nodes,
                 job.start_time - job.submit_time);
  }

  Duration dur = std::min(job.req.actual_runtime, job.req.requested_walltime);
  if (job.req.fails) {
    dur = std::min(dur, std::max<Duration>(job.req.fail_after, kMillisecond));
  }
  const JobId id = job.id;
  // A feedback job's end fans out to other partitions (workflow successor
  // submission, co-allocation bookkeeping); a reservation-attached job's
  // end releases a metascheduler-held window. Both are walls.
  const EventClass end_cls =
      (slot_at(id).reservation.valid() || is_feedback(job.req))
          ? EventClass::kBarrier
          : EventClass::kLocal;
  slot_at(id).end_event = engine_.schedule_in(
      dur, [this, id] { finish_job(id); }, EventPriority::kCompletion,
      EventBinding{shard_, end_cls});
  notify_start(job);
}

void ResourceScheduler::finish_job(JobId id) {
  JobSlot* s = find_slot(id);
  TG_CHECK(s != nullptr, "finishing unknown job " << id);
  const Job& job = s->job;
  const Duration ran = engine_.now() - job.start_time;
  JobState state;
  if (job.req.fails && ran < job.req.actual_runtime &&
      ran < job.req.requested_walltime) {
    state = JobState::kFailed;
  } else if (job.req.actual_runtime > job.req.requested_walltime) {
    state = JobState::kKilled;
  } else {
    state = JobState::kCompleted;
  }
  s->end_event = kInvalidEvent;  // fired, not cancelled
  complete_job(id, state);
}

void ResourceScheduler::complete_job(JobId id, JobState state) {
  JobSlot& s = slot_at(id);
  Job job = std::move(s.job);
  const ReservationId res = s.reservation;
  untrack_running(s);
  release_slot(id);
  --running_count_;

  job.end_time = engine_.now();
  job.state = state;
  const Duration ran = job.end_time - job.start_time;
  // An exact-walltime completion releases its nodes at precisely the moment
  // the cached plan assumed, so the plan survives — the common case under
  // walltime-accurate workloads. Anything earlier frees capacity the plan
  // did not anticipate. The built_at guard covers plans built this very
  // tick, where base_profile clamps an already-elapsed window to now + 1.
  if (res.valid() ||
      job.end_time != job.start_time + planned_duration(job) ||
      plan_.built_at == job.end_time) {
    invalidate_plan();
  }
  if (trace_ != nullptr) {
    trace_->emit(job.end_time, obs::TraceCategory::kScheduler,
                 obs::TracePoint::kJobEnd, job.id.value(),
                 static_cast<std::int64_t>(state), ran);
  }

  // Release nodes. Reservation-attached jobs release through their
  // reservation (ending it early).
  if (res.valid()) {
    Reservation& r = reservations_.at(res.value());
    TG_CHECK(r.started && !r.finished, "job finished outside its reservation");
    r.finished = true;
    free_nodes_ += r.nodes;
    reservations_.erase(res.value());
  } else {
    free_nodes_ += job.req.nodes;
  }
  TG_CHECK(free_nodes_ <= resource_.nodes, "node accounting corrupted");

  metrics_.record_finished(job.wait(), ran, job.req.nodes,
                           resource_.cores_per_node, job.bounded_slowdown(),
                           job.state == JobState::kKilled,
                           job.state == JobState::kFailed);
  if (config_.fair_share) {
    charge_fair_share(job.req.user,
                      to_seconds(ran) * job.req.nodes *
                          resource_.cores_per_node,
                      job.end_time);
  }
  notify_end(job);
  request_pass();
}

// [mc race] An outage event can tie with completions, reservation starts
// and requeue wakeups at the same tick; every branch of that race must
// leave node accounting consistent (the interleaving explorer drives all
// orders, and the capacity/quiescence invariant families audit each one).
int ResourceScheduler::begin_outage(int nodes, SimTime repair) {
  TG_REQUIRE(nodes >= 1 && nodes <= resource_.nodes,
             "outage width " << nodes << " invalid for " << resource_.name);
  const SimTime now = engine_.now();
  // Block re-entrant scheduling while nodes are being taken: preemption
  // observers may submit, and a pass could otherwise grab the just-freed
  // nodes before the outage claims them.
  in_pass_ = true;
  invalidate_plan();  // the cached profile has no down-nodes window
  while (free_nodes_ < nodes) {
    // Victim: youngest running non-reservation job (latest start, then
    // highest id) — the cheapest partial work to lose. The slab is not
    // id-ordered, so the tie-break the old ascending-id map walk got for
    // free is spelled out explicitly.
    JobId victim;
    SimTime latest = -1;
    for (const JobId rid : running_ids_) {
      const Job& job = slot_at(rid).job;
      if (job.start_time > latest ||
          (job.start_time == latest && job.id.value() > victim.value())) {
        latest = job.start_time;
        victim = job.id;
      }
    }
    if (!victim.valid()) break;  // only reservations left; take what's free
    preempt_job(victim);
  }
  const int taken = std::min(nodes, free_nodes_);
  free_nodes_ -= taken;
  nodes_down_ += taken;
  if (taken > 0) {
    outage_until_ = std::max(outage_until_, std::max(repair, now + 1));
    metrics_.record_outage(taken);
    if (trace_ != nullptr) {
      trace_->emit(now, obs::TraceCategory::kScheduler,
                   obs::TracePoint::kOutageBegin, resource_.id.value(), taken,
                   repair);
    }
  }
  in_pass_ = false;
  request_pass();
  return taken;
}

void ResourceScheduler::end_outage(int nodes) {
  TG_REQUIRE(nodes >= 1 && nodes <= nodes_down_,
             "returning " << nodes << " nodes but only " << nodes_down_
                          << " are down on " << resource_.name);
  nodes_down_ -= nodes;
  free_nodes_ += nodes;
  TG_CHECK(free_nodes_ <= resource_.nodes, "node accounting corrupted");
  if (nodes_down_ == 0) outage_until_ = 0;
  if (trace_ != nullptr) {
    trace_->emit(engine_.now(), obs::TraceCategory::kScheduler,
                 obs::TracePoint::kOutageEnd, resource_.id.value(), nodes);
  }
  invalidate_plan();  // nodes came back earlier than the advisory said
  request_pass();
}

bool ResourceScheduler::interrupt(JobId id, JobState state) {
  TG_REQUIRE(state == JobState::kFailed || state == JobState::kKilled ||
                 state == JobState::kKilledByOutage,
             "interrupt requires a terminal state, got " << to_string(state));
  JobSlot* s = find_slot(id);
  if (s == nullptr || s->job.state != JobState::kRunning) {
    return false;
  }
  TG_CHECK(s->end_event != kInvalidEvent, "running job without an end event");
  engine_.cancel(s->end_event);
  s->end_event = kInvalidEvent;
  complete_job(id, state);
  return true;
}

void ResourceScheduler::preempt_job(JobId id) {
  JobSlot* s = find_slot(id);
  TG_CHECK(s != nullptr && s->job.state == JobState::kRunning,
           "preempting a non-running job " << id);
  invalidate_plan();  // the victim's window vanishes from the profile
  Job& job = s->job;
  TG_CHECK(s->end_event != kInvalidEvent, "running job without an end event");
  engine_.cancel(s->end_event);
  s->end_event = kInvalidEvent;
  untrack_running(*s);
  --running_count_;
  free_nodes_ += job.req.nodes;

  const SimTime now = engine_.now();
  const Duration ran = now - job.start_time;
  ++job.preemptions;
  const bool requeue = job.preemptions <= config_.outage_retry_limit;
  if (trace_ != nullptr) {
    trace_->emit(now, obs::TraceCategory::kScheduler,
                 obs::TracePoint::kJobPreempt, id.value(), job.preemptions,
                 requeue ? 1 : 0);
  }
  metrics_.record_preempted(to_seconds(ran) * job.req.nodes *
                                static_cast<double>(resource_.cores_per_node),
                            !requeue);
  if (requeue) {
    // Emit the lost attempt to observers (accounting records it with the
    // kRequeued disposition), then return the job to the queued state; it
    // re-enters the queue after an exponential backoff. Lost work is not
    // charged to fair share — the user did not get it.
    Job attempt = job;
    attempt.end_time = now;
    attempt.state = JobState::kRequeued;
    job.state = JobState::kQueued;
    job.start_time = -1;
    job.end_time = -1;
    job.requeue_pending = true;
    Duration backoff = config_.outage_retry_backoff;
    for (int i = 1;
         i < job.preemptions && backoff < config_.outage_retry_backoff_cap;
         ++i) {
      backoff *= 2;
    }
    backoff = std::min(backoff, config_.outage_retry_backoff_cap);
    backoff = std::max<Duration>(backoff, kMillisecond);
    // A feedback job's requeue re-enters the queue and re-serializes the
    // partition — a cross-cutting transition that must run on the merged
    // loop, so it is a wall; plain jobs' requeues stay local.
    engine_.schedule_in(backoff, [this, id] { requeue_job(id); },
                        EventPriority::kSubmission,
                        EventBinding{shard_, is_feedback(job.req)
                                                 ? EventClass::kBarrier
                                                 : EventClass::kLocal});
    notify_end(attempt);
  } else {
    Job dead = std::move(s->job);
    release_slot(id);
    dead.end_time = now;
    dead.state = JobState::kKilledByOutage;
    notify_end(dead);
  }
}

// [mc race] The requeue wakeup fires at kSubmission priority and can tie
// with fresh submissions on this partition; whichever order fires, the
// stale-entry erase below must keep exactly one queue entry per job (the
// PR 3 queue-entry-resurrection bug was this race, lost).
void ResourceScheduler::requeue_job(JobId id) {
  JobSlot* s = find_slot(id);
  if (s == nullptr || s->job.state != JobState::kQueued ||
      !s->job.requeue_pending) {
    return;  // cancelled while the backoff was pending
  }
  s->job.requeue_pending = false;
  // Drop stale entries from this job's previous attempts (each was counted
  // as a tombstone when that attempt started); left in place they would
  // resurrect as schedulable duplicates now that the job is queued again.
  queue_tombstones_ -= static_cast<std::size_t>(std::erase(queue_, id));
  queue_front_ = 0;  // the erase shifted positions under the prefix pointer
  queue_.push_back(id);
  if (is_feedback(s->job.req)) add_feedback_queued();
  if (trace_ != nullptr) {
    trace_->emit(engine_.now(), obs::TraceCategory::kScheduler,
                 obs::TracePoint::kJobRequeue, id.value());
  }
  invalidate_plan();  // the erase above shifts the plan cursor's indices
  request_pass();
}

void ResourceScheduler::on_reservation_start(ReservationId id) {
  Reservation* rp = reservations_.find(id.value());
  if (rp == nullptr) return;  // cancelled meanwhile
  // [mc race] This handler ties with same-tick outage events at
  // (time, kDefault) on this partition: reserve() scheduled it first, so
  // the canonical order starts the window before an outage can touch the
  // promised nodes, but the interleaving explorer also drives the flipped
  // order, where the shortfall branch below must hold the line.
  if (free_nodes_ < rp->nodes) {
    // reserve() validated this window against every other commitment, so a
    // shortfall here means an outage took the promised nodes. Break the
    // reservation (cancelling its attached job) rather than over-commit —
    // what a real site does when a machine partition dies under an
    // advance reservation. Erase before the callbacks: an observer that
    // reserves would rehash the table out from under `rp`.
    TG_CHECK(nodes_down_ > 0,
             "reservation window not honoured on " << resource_.name);
    if (config_.mc_mutate_overcommit_reservation) {
      // Deliberately re-introduced over-commit (see SchedulerConfig): the
      // window starts on nodes the outage owns and free_nodes_ keeps its
      // pre-reservation value, so this resource is now promised to two
      // holders at once. The capacity-conservation invariant family
      // catches the resulting double allocation.
      rp->started = true;
      const JobId attached = rp->attached_job;
      const SimTime rend = rp->end;
      if (attached.valid()) {
        start_job(slot_at(attached).job, /*from_reservation=*/true);
      }
      engine_.schedule_at(rend, [this, id] { on_reservation_end(id); },
                          EventPriority::kCompletion,
                          EventBinding{shard_, EventClass::kBarrier});
      return;
    }
    const JobId attached = rp->attached_job;
    reservations_.erase(id.value());
    if (attached.valid()) {
      JobSlot* js = find_slot(attached);
      if (js != nullptr) {
        Job job = std::move(js->job);
        release_slot(attached);
        job.state = JobState::kCancelled;
        job.end_time = engine_.now();
        notify_end(job);
      }
    }
    invalidate_plan();  // the cached profile still holds the broken window
    request_pass();
    return;
  }
  rp->started = true;
  free_nodes_ -= rp->nodes;
  // Copy what the tail needs: a start callback that places a new
  // reservation would invalidate `rp`.
  const JobId attached = rp->attached_job;
  const SimTime rend = rp->end;
  if (attached.valid()) {
    start_job(slot_at(attached).job, /*from_reservation=*/true);
  }
  engine_.schedule_at(rend, [this, id] { on_reservation_end(id); },
                      EventPriority::kCompletion,
                      EventBinding{shard_, EventClass::kBarrier});
}

void ResourceScheduler::on_reservation_end(ReservationId id) {
  Reservation* rp = reservations_.find(id.value());
  if (rp == nullptr) return;  // released early by its job
  TG_CHECK(rp->started, "reservation ended before starting");
  if (rp->attached_job.valid() && find_slot(rp->attached_job) != nullptr) {
    // The attached job is still running at window end; it was validated to
    // fit, so this means its end event is at exactly this tick — let the
    // job's own finish release the nodes.
    return;
  }
  const int nodes = rp->nodes;
  reservations_.erase(id.value());
  free_nodes_ += nodes;
  // The cached plan's window for this reservation ends exactly now, so it
  // survives — unless it was built this very tick, where base_profile
  // clamped the elapsed window to now + 1.
  if (plan_.built_at == engine_.now()) invalidate_plan();
  request_pass();
}

SimTime ResourceScheduler::estimate_start(int nodes, Duration walltime) const {
  TG_REQUIRE(nodes >= 1 && nodes <= resource_.nodes,
             "estimate width invalid for " << resource_.name);
  // The conservative plan *is* the estimate's scaffolding: queue-prefix
  // commitments subtracted from the base profile. Served from the cache
  // when live (O(profile) instead of a full replan per probe — the
  // federation selector issues one probe per candidate resource).
  const PlanCache& plan = ensure_plan();
  return plan.profile.earliest_fit(nodes, walltime, engine_.now());
}

const Job& ResourceScheduler::job(JobId id) const {
  const JobSlot* s = find_slot(id);
  TG_REQUIRE(s != nullptr, "job " << id << " is not live");
  return s->job;
}

}  // namespace tg
