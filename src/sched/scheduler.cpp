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
  return slots_[slot];
}

void ResourceScheduler::release_slot(JobId id) {
  const auto local = static_cast<std::size_t>(id.value() - job_id_base_);
  const std::uint32_t slot = slot_index_[local];
  slot_index_[local] = kNoSlot;
  JobSlot& s = slots_[slot];
  s.job = Job{};
  s.end_event = kInvalidEvent;
  s.reservation = ReservationId{};
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
  JobSlot& slot = acquire_slot(id);
  Job& job = slot.job;
  job.id = id;
  job.resource = resource_.id;
  job.req = std::move(request);
  job.submit_time = engine_.now();
  job.state = JobState::kQueued;
  enqueue(slot);
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

void ResourceScheduler::enqueue(JobSlot& s) {
  s.queue_seq = next_queue_seq_++;
  queue_.push_back(QueueEntry{s.job.id, planned_duration(s.job), s.queue_seq,
                              s.job.req.nodes, false});
}

std::size_t ResourceScheduler::queue_pos(std::uint64_t seq) const {
  const auto it = std::lower_bound(
      queue_.begin(), queue_.end(), seq,
      [](const QueueEntry& e, std::uint64_t key) { return e.seq < key; });
  TG_CHECK(it != queue_.end() && it->seq == seq && !it->marked,
           "queue entry " << seq << " missing on " << resource_.name);
  return static_cast<std::size_t>(it - queue_.begin());
}

void ResourceScheduler::mark_entry(std::size_t pos) {
  queue_[pos].marked = true;
  ++queue_marked_;
}

void ResourceScheduler::start_entry(std::size_t pos) {
  mark_entry(pos);
  start_job(slot_at(queue_[pos].id).job, /*from_reservation=*/false);
}

void ResourceScheduler::drop_marked(std::size_t end) {
  // Compact toward `end`: survivors shift right past the marked entries,
  // then the freed front is popped, so entries past `end` never move.
  std::size_t write = end;
  std::size_t before_cursor = 0;
  for (std::size_t read = end; read-- > 0;) {
    if (queue_[read].marked) {
      if (read < plan_.cursor) ++before_cursor;
      continue;
    }
    if (--write != read) queue_[write] = queue_[read];
  }
  queue_.erase(queue_.begin(),
               queue_.begin() + static_cast<std::ptrdiff_t>(write));
  queue_marked_ -= write;
  plan_.cursor -= before_cursor;
}

void ResourceScheduler::track_running(const Job& job) {
  const RunningEntry entry{job.start_time + planned_duration(job), job.id,
                           job.req.nodes};
  running_.insert(std::upper_bound(running_.begin(), running_.end(), entry),
                  entry);
}

void ResourceScheduler::untrack_running(const Job& job) {
  const RunningEntry entry{job.start_time + planned_duration(job), job.id,
                           job.req.nodes};
  const auto it = std::lower_bound(running_.begin(), running_.end(), entry);
  TG_CHECK(it != running_.end() && *it == entry,
           "job " << job.id << " not tracked as running");
  running_.erase(it);
}

bool ResourceScheduler::cancel(JobId id) {
  JobSlot* s = find_slot(id);
  if (s == nullptr || s->job.state != JobState::kQueued) return false;
  // Plan upkeep while the job's width/walltime are still at hand.
  // Reservation-attached and backoff-pending jobs are never planned.
  if (plan_.valid && !s->reservation.valid() && !s->job.requeue_pending) {
    if (!plan_.jobs.empty() && plan_.jobs.back() == id) {
      // Un-plan the tail entry in place: give its window back.
      const Duration dur = planned_duration(s->job);
      const SimTime st = plan_.starts.back();
      plan_.profile.subtract(st, st + dur, -s->job.req.nodes);
      plan_.jobs.pop_back();
      plan_.starts.pop_back();
    } else if (std::find(plan_.jobs.begin(), plan_.jobs.end(), id) !=
               plan_.jobs.end()) {
      // A mid-plan hole shifts every later planned start.
      invalidate_plan();
    }
    // Unplanned entries are just marked; the cursor scan skips them.
  }
  Job job = std::move(s->job);
  const ReservationId res = s->reservation;
  const std::uint64_t seq = s->queue_seq;
  release_slot(id);
  if (res.valid()) {
    // Reservation-attached jobs wait on their window, not in queue_;
    // detach so the reservation opens empty instead of dangling.
    const auto r = find_reservation(res);
    TG_CHECK(r != reservations_.end(), "unknown reservation " << res);
    r->attached_job = JobId{};
  } else if (job.requeue_pending) {
    // Preempted and awaiting its backoff: not in queue_, so there is no
    // entry to mark; the pending requeue event finds the job gone.
  } else {
    if (is_feedback(job.req)) remove_feedback_queued();
    // Marked in place: a pass scanning queue_ right now (this cancel may
    // come from a start observer) must see every entry where it was.
    mark_entry(queue_pos(seq));
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
  Profile profile(0, 0);
  base_profile(profile);
  if (profile.earliest_fit(nodes, duration, start) != start) {
    return ReservationId{};  // invalid — window not free
  }
  const ReservationId id{next_reservation_++};
  Reservation r;
  r.id = id;
  r.start = start;
  r.end = start + duration;
  r.nodes = nodes;
  reservations_.push_back(r);
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
  const auto it = find_reservation(id);
  TG_REQUIRE(it != reservations_.end(), "unknown reservation " << id);
  Reservation& r = *it;
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
  const auto it = find_reservation(id);
  if (it == reservations_.end() || it->started) return false;
  // Erase before firing callbacks: an observer that places a new
  // reservation could reallocate the table out from under `it`.
  const JobId attached = it->attached_job;
  reservations_.erase(it);
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

void ResourceScheduler::base_profile(Profile& profile) const {
  const SimTime now = engine_.now();
  profile.reset(now, resource_.nodes);
  // running_ holds exactly the running non-reservation jobs, sorted by
  // planned end, so they load as presorted releases. A job holds its nodes
  // until its completion event is *processed*: add_hold clamps a planned
  // end <= now (event pending this tick, or overdue kill) to now + 1, or a
  // same-tick pass would overcommit.
  for (const RunningEntry& r : running_) profile.add_hold(r.end, r.nodes);
  for (const Reservation& r : reservations_) {
    const SimTime end = r.started ? std::max(r.end, now + 1) : r.end;
    profile.subtract(std::max(r.start, now), end, r.nodes);
  }
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
}

double ResourceScheduler::fair_share_usage(UserId user, SimTime now) const {
  if (!user.valid()) return 0.0;
  const auto idx = static_cast<std::size_t>(user.value());
  if (idx >= usage_.size()) return 0.0;
  const auto [value, at] = usage_[idx];
  if (value == 0.0) return 0.0;  // never charged (or fully zero anyway)
  constexpr Duration kHalfLife = 7 * kDay;
  const double decay = std::exp2(-static_cast<double>(now - at) /
                                 static_cast<double>(kHalfLife));
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

std::vector<std::size_t> ResourceScheduler::ordered_queue() const {
  std::vector<std::size_t> order;
  order.reserve(queue_length());
  for (std::size_t pos = 0; pos < queue_.size(); ++pos) {
    if (!queue_[pos].marked) order.push_back(pos);
  }
  if (config_.fair_share) {
    const SimTime now = engine_.now();
    const auto usage = [&](std::size_t pos) {
      return fair_share_usage(slot_at(queue_[pos].id).job.req.user, now);
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return usage(a) < usage(b);
                     });
  }
  if (config_.drain_period > 0) {
    // Capability jobs take at least half the machine, rounded up.
    const int thresh = (resource_.nodes + 1) / 2;
    std::stable_partition(order.begin(), order.end(), [&](std::size_t pos) {
      return queue_[pos].nodes >= thresh;
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
  if (!plan_.valid) return 0;
  const auto depth = static_cast<std::size_t>(config_.backfill_depth);
  const SimTime now = engine_.now();
  const std::size_t from = plan_.cursor;
  std::size_t planned = 0;
  while (plan_.cursor < queue_.size() && plan_.jobs.size() < depth) {
    const QueueEntry& e = queue_[plan_.cursor++];
    if (e.marked) continue;
    const SimTime s = plan_.profile.earliest_fit(e.nodes, e.walltime, now);
    TG_CHECK(s >= 0, "job cannot ever fit");
    plan_.profile.subtract(s, s + e.walltime, e.nodes);
    plan_.jobs.push_back(e.id);
    plan_.starts.push_back(s);
    ++planned;
  }
  if (in_pass_) metrics_.record_pass_work(plan_.cursor - from, planned);
  return planned;
}

void ResourceScheduler::rebuild_plan() const {
  const SimTime now = engine_.now();
  base_profile(plan_.profile);
  plan_.jobs.clear();
  plan_.starts.clear();
  plan_.cursor = 0;
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
  const std::vector<std::size_t> order = ordered_queue();
  const std::size_t scan_end = std::min(
      order.size(), static_cast<std::size_t>(config_.backfill_depth));
  for (std::size_t i = 0; i < scan_end; ++i) {
    const QueueEntry& e = queue_[order[i]];
    const SimTime s = plan_.profile.earliest_fit(e.nodes, e.walltime, now);
    TG_CHECK(s >= 0, "job cannot ever fit");
    plan_.profile.subtract(s, s + e.walltime, e.nodes);
    plan_.jobs.push_back(e.id);
    plan_.starts.push_back(s);
  }
  if (in_pass_) metrics_.record_pass_work(queue_.size(), scan_end);
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
  constexpr std::size_t kNoEntry = ~std::size_t{0};
  const bool fifo = !config_.fair_share && config_.drain_period <= 0;
  int started = 0;
  // This pass's own queue entries examined and fit checks (plan building
  // reports its share itself). `walked` bounds the queue_ prefix the pass
  // walked; its marked entries are dropped before the pass returns.
  std::size_t scanned = 0;
  std::size_t fits = 0;
  std::size_t walked = 0;

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
      const JobSlot* s = find_slot(id);
      if (s == nullptr || s->job.state != JobState::kQueued) continue;
      start_entry(queue_pos(s->queue_seq));
      ++started;
    }
    in_plan_start_ = false;
    walked = plan_cacheable() ? plan_.cursor : queue_.size();
    if (!plan_.starts.empty()) {
      // The remaining head was planned against exactly the commitments a
      // fresh base profile would show, so its planned start doubles as
      // the head-fit wakeup target — no second profile build.
      wake = plan_.starts.front();
    } else if (queue_length() > 0) {
      // Degenerate window (backfill_depth == 0, or every planned job just
      // left): fall back to an explicit head fit.
      std::size_t head = 0;
      if (fifo) {
        while (queue_[head].marked) ++head;
        scanned += head + 1;
        walked = std::max(walked, head + 1);
      } else {
        head = ordered_queue().front();
        scanned += queue_.size();
      }
      ++fits;
      wake = plan_.profile.earliest_fit(queue_[head].nodes,
                                        queue_[head].walltime, now);
    }
  } else {
    Profile& profile = pass_profile_;
    base_profile(profile);
    // Lazy ordered-queue prefix: plain FIFO yields unmarked entries on
    // demand and stops at what the policy consumes (started run + head +
    // the backfill window) instead of materializing the whole queue every
    // pass. Fair-share and drain ordering still sort the full queue.
    std::vector<std::size_t> order;
    if (!fifo) order = ordered_queue();
    // Entries appended by mid-pass callbacks are this pass's business no
    // more than they were when the order was a materialized snapshot.
    const std::size_t queued = queue_.size();
    const std::size_t limit = fifo ? queued : order.size();
    std::size_t next = 0;
    const auto next_live = [&]() -> std::size_t {
      while (next < limit) {
        const std::size_t pos = fifo ? next : order[next];
        ++next;
        if (!queue_[pos].marked) return pos;
      }
      return kNoEntry;
    };
    const auto fits_now = [&](const QueueEntry& e) {
      ++fits;
      return profile.fits_at(now, e.nodes, e.walltime);
    };

    std::size_t head = kNoEntry;
    for (std::size_t pos = next_live(); pos != kNoEntry; pos = next_live()) {
      const QueueEntry& e = queue_[pos];
      // The profile's value at `now` never exceeds free_nodes_ (it also
      // carries unstarted reservation windows), so a width check is a free
      // short-circuit — on a packed machine the pass does no profile work.
      if (e.nodes > free_nodes_ || !fits_now(e)) {
        head = pos;
        break;
      }
      profile.subtract(now, now + e.walltime, e.nodes);
      start_entry(pos);
      ++started;
    }
    if (head != kNoEntry) {
      const int hnodes = queue_[head].nodes;
      const Duration hdur = queue_[head].walltime;
      // At this point the profile holds base + started windows — exactly
      // the fresh base profile the old wakeup tail rebuilt — so the head
      // fit is computed once and reused as both the EASY shadow and the
      // wakeup target.
      ++fits;
      const SimTime shadow = profile.earliest_fit(hnodes, hdur, now);
      TG_CHECK(shadow >= 0, "head job cannot ever fit");
      wake = shadow;
      if (config_.policy == SchedPolicy::kEasyBackfill) {
        // Reserve the head job's slot, then backfill anything that fits
        // now without disturbing it.
        profile.subtract(shadow, shadow + hdur, hnodes);
        // free_nodes_ == 0 makes every remaining fits_at provably false
        // (see the width short-circuit above), so stop scanning outright.
        for (int candidates = 0;
             candidates < config_.backfill_depth && free_nodes_ > 0;
             ++candidates) {
          const std::size_t pos = next_live();
          if (pos == kNoEntry) break;
          const QueueEntry& e = queue_[pos];
          if (e.nodes <= free_nodes_ && fits_now(e)) {
            profile.subtract(now, now + e.walltime, e.nodes);
            start_entry(pos);
            ++started;
          }
        }
      }
    }
    // FIFO walked the prefix it stepped over; a sorted order walked it all.
    walked = fifo ? next : queued;
    scanned += walked;
  }
  drop_marked(walked);
  metrics_.record_pass();
  metrics_.record_pass_work(scanned, fits);
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
  }
  job.state = JobState::kRunning;
  job.start_time = engine_.now();
  if (!from_reservation) track_running(job);
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
  release_slot(id);
  if (!res.valid()) untrack_running(job);
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
    const auto r = find_reservation(res);
    TG_CHECK(r != reservations_.end() && r->started,
             "job finished outside its reservation");
    free_nodes_ += r->nodes;
    reservations_.erase(r);
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
  // nodes before the outage claims them. An outage begun from inside a
  // pass (a start observer) leaves that pass's guard up.
  const bool in_pass = in_pass_;
  in_pass_ = true;
  invalidate_plan();  // the cached profile has no down-nodes window
  while (free_nodes_ < nodes) {
    // Victim: youngest running non-reservation job (latest start, then
    // highest id) — the cheapest partial work to lose. running_ is ordered
    // by planned end, not start, so the total order is spelled out and the
    // scan order does not matter.
    JobId victim;
    SimTime latest = -1;
    for (const RunningEntry& r : running_) {
      const Job& job = slot_at(r.id).job;
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
  in_pass_ = in_pass;
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
  untrack_running(job);
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
    constexpr Duration kBackoffCap = 8 * kHour;
    Duration backoff = config_.outage_retry_backoff;
    for (int i = 1; i < job.preemptions && backoff < kBackoffCap; ++i) {
      backoff *= 2;
    }
    backoff = std::min(backoff, kBackoffCap);
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
// with fresh submissions on this partition; whichever order fires, the job
// must end up with exactly one unmarked queue entry (a stale entry that
// resurrected as a duplicate was this race, lost). The entries of its
// earlier attempts were marked when those attempts started.
void ResourceScheduler::requeue_job(JobId id) {
  JobSlot* s = find_slot(id);
  if (s == nullptr || s->job.state != JobState::kQueued ||
      !s->job.requeue_pending) {
    return;  // cancelled while the backoff was pending
  }
  s->job.requeue_pending = false;
  enqueue(*s);
  if (is_feedback(s->job.req)) add_feedback_queued();
  if (trace_ != nullptr) {
    trace_->emit(engine_.now(), obs::TraceCategory::kScheduler,
                 obs::TracePoint::kJobRequeue, id.value());
  }
  // Kept blunt: requeues are rare (outages only), and a from-scratch
  // replan is the invalidation map's safe default.
  invalidate_plan();
  request_pass();
}

void ResourceScheduler::on_reservation_start(ReservationId id) {
  const auto rp = find_reservation(id);
  if (rp == reservations_.end()) return;  // cancelled meanwhile
  // [mc race] This handler ties with same-tick outage events at
  // (time, kDefault) on this partition: reserve() scheduled it first, so
  // the canonical order starts the window before an outage can touch the
  // promised nodes, but the interleaving explorer also drives the flipped
  // order, where the shortfall branch below must hold the line.
  // reserve() validated this window against every other commitment, so a
  // shortfall here means an outage took the promised nodes.
  const bool shortfall = free_nodes_ < rp->nodes;
  TG_CHECK(!shortfall || nodes_down_ > 0,
           "reservation window not honoured on " << resource_.name);
  if (shortfall && !config_.mc_mutate_overcommit_reservation) {
    // Break the reservation (cancelling its attached job) rather than
    // over-commit — what a real site does when a machine partition dies
    // under an advance reservation. Erase before the callbacks: an
    // observer that reserves could reallocate the table out from under
    // `rp`.
    const JobId attached = rp->attached_job;
    reservations_.erase(rp);
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
  // The deliberately re-introduced over-commit (see SchedulerConfig) starts
  // the window on nodes the outage owns and leaves free_nodes_ at its
  // pre-reservation value, so this resource is now promised to two holders
  // at once. The capacity-conservation invariant family catches the
  // resulting double allocation.
  if (!shortfall) free_nodes_ -= rp->nodes;
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
  const auto rp = find_reservation(id);
  if (rp == reservations_.end()) return;  // released early by its job
  TG_CHECK(rp->started, "reservation ended before starting");
  if (rp->attached_job.valid() && find_slot(rp->attached_job) != nullptr) {
    // The attached job is still running at window end; it was validated to
    // fit, so this means its end event is at exactly this tick — let the
    // job's own finish release the nodes.
    return;
  }
  free_nodes_ += rp->nodes;
  reservations_.erase(rp);
  // The cached plan's window for this reservation ends exactly now, so it
  // survives — unless it was built this very tick, where base_profile
  // clamped the elapsed window to now + 1.
  if (plan_.built_at == engine_.now()) invalidate_plan();
  request_pass();
}

std::vector<Reservation>::iterator ResourceScheduler::find_reservation(
    ReservationId id) {
  const auto it = std::lower_bound(
      reservations_.begin(), reservations_.end(), id,
      [](const Reservation& r, ReservationId key) { return r.id < key; });
  return it != reservations_.end() && it->id == id ? it : reservations_.end();
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
