// Space-shared batch scheduling for one compute resource.
//
// Supports the three classic policies (FCFS, EASY backfill, conservative
// backfill), advance reservations (used by the metascheduler for cross-site
// co-allocation), and periodic drain fences with capability-job priority —
// the "weekly clearing followed by full-machine runs" policy NICS ran on
// Kraken. Planning always uses the *requested* walltime; jobs that finish
// early trigger a new scheduling pass, which is where backfill wins.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "des/engine.hpp"
#include "infra/platform.hpp"
#include "obs/trace.hpp"
#include "sched/job.hpp"
#include "sched/metrics.hpp"
#include "sched/profile.hpp"

namespace tg {

enum class SchedPolicy : std::uint8_t {
  kFcfs,
  kEasyBackfill,
  kConservativeBackfill,
};

[[nodiscard]] const char* to_string(SchedPolicy p);

// --- Job id space -----------------------------------------------------------
// Job ids are globally unique across schedulers: (resource.id + 1) is folded
// into the bits above kJobIdResourceShift and a per-resource counter fills
// the low bits. Both halves are guarded: a scheduler refuses resources with
// id > kMaxResourceId at construction, and refuses the submission that would
// overflow its 2^40-job band instead of silently colliding with the next
// resource's ids.
inline constexpr int kJobIdResourceShift = 40;
inline constexpr std::int64_t kMaxJobsPerResource =
    std::int64_t{1} << kJobIdResourceShift;
/// Largest resource id whose band still fits in a signed 64-bit JobId.
inline constexpr std::int32_t kMaxResourceId = (std::int32_t{1} << 23) - 2;

struct SchedulerConfig {
  SchedPolicy policy = SchedPolicy::kEasyBackfill;
  /// If > 0, the machine is fully drained every `drain_period` (no job may
  /// run across a fence), and capability jobs — at least half the machine's
  /// nodes, rounded up — get queue priority.
  Duration drain_period = 0;
  /// Backfill policies examine at most this many queued jobs per pass
  /// (production schedulers cap their lookahead the same way).
  int backfill_depth = 128;
  /// Fair-share queue ordering: users with less recent usage, decayed
  /// exponentially with a 7-day half-life, go first. FIFO among equal
  /// users.
  bool fair_share = false;
  /// Outage handling: a job preempted by an outage is requeued (after a
  /// backoff) at most this many times; the next preemption kills it with
  /// state kKilledByOutage.
  int outage_retry_limit = 3;
  /// Backoff before the k-th requeued attempt re-enters the queue:
  /// outage_retry_backoff * 2^(k-1), capped at 8 h.
  Duration outage_retry_backoff = 15 * kMinute;
  /// Incremental plan cache (the default): the conservative plan survives
  /// across events and is only invalidated/extended by what an event
  /// actually touches. When false every pass and estimate replans from
  /// scratch — the reference planner the equivalence tests compare
  /// against; outcomes must be byte-identical either way.
  bool plan_cache = true;
  /// Model-checker self-test ONLY (tgmc --mutate, mc_test): re-introduces
  /// the pre-PR3 outage-vs-reservation over-commit. When an outage races
  /// ahead of a reservation start and takes its promised nodes, the
  /// mutated scheduler starts the window anyway without debiting
  /// free_nodes_, so later passes hand the same nodes out twice. The bug
  /// is order-dependent — the canonical schedule never trips it — which is
  /// exactly what the interleaving explorer must prove it can catch.
  /// Never set outside the mc harness.
  bool mc_mutate_overcommit_reservation = false;
};

struct Reservation {
  ReservationId id;
  SimTime start = 0;
  SimTime end = 0;
  int nodes = 0;
  bool started = false;
  JobId attached_job;  ///< optional job launched at reservation start
};

class ResourceScheduler {
 public:
  using JobCallback = std::function<void(const Job&)>;

  /// `shard` is the engine partition this scheduler's events live on (its
  /// site_partition on a partitioned engine; 0 when unpartitioned).
  ResourceScheduler(Engine& engine, const ComputeResource& resource,
                    SchedulerConfig config = {}, std::uint32_t shard = 0);

  ResourceScheduler(const ResourceScheduler&) = delete;
  ResourceScheduler& operator=(const ResourceScheduler&) = delete;

  /// Submits a job to the queue. Validates width/walltime against the
  /// machine limits (throws PreconditionError on violation).
  JobId submit(JobRequest request);

  /// Cancels a queued job. Returns false if unknown or already running.
  bool cancel(JobId id);

  /// Places an advance reservation for `nodes` during [start, start+dur).
  /// Fails (returns invalid id) if the window conflicts with existing
  /// commitments of running jobs or other reservations.
  ReservationId reserve(SimTime start, Duration duration, int nodes);

  /// Attaches a job to a pending reservation; it starts exactly at the
  /// reservation start on the reserved nodes. The job's width/walltime must
  /// fit inside the reservation.
  JobId attach_to_reservation(ReservationId id, JobRequest request);

  /// Cancels a reservation that has not started. Returns false otherwise.
  bool cancel_reservation(ReservationId id);

  // --- Fault injection (driven by src/fault/FaultModel) -------------------

  /// Takes up to `nodes` nodes out of service; `repair` advises the planner
  /// when they are expected back (they actually return when end_outage is
  /// called). Running non-reservation jobs are preempted youngest-first to
  /// free the requested nodes; each preempted job is requeued with
  /// exponential backoff until its retry budget is spent, then killed with
  /// kKilledByOutage. Reservations are never broken, so fewer nodes than
  /// requested may be taken. Returns the node count actually taken — pass
  /// exactly that to end_outage.
  int begin_outage(int nodes, SimTime repair);

  /// Returns `nodes` previously taken by begin_outage to service.
  void end_outage(int nodes);

  /// Forcibly terminates a running job with the given terminal state
  /// (per-job failure hazards inject kFailed this way). Returns false if
  /// the job is not currently running.
  bool interrupt(JobId id, JobState state);

  /// Nodes currently out of service.
  [[nodiscard]] int nodes_down() const { return nodes_down_; }
  /// Nodes currently in service (total minus outage).
  [[nodiscard]] int available_nodes() const {
    return resource_.nodes - nodes_down_;
  }

  /// Conservative estimate of the earliest start of a hypothetical job,
  /// accounting for running jobs, reservations, fences and the current
  /// queue. This is what TeraGrid "time-to-start" advisors exposed.
  [[nodiscard]] SimTime estimate_start(int nodes, Duration walltime) const;

  void add_on_start(JobCallback cb) { on_start_.push_back(std::move(cb)); }
  void add_on_end(JobCallback cb) { on_end_.push_back(std::move(cb)); }

  [[nodiscard]] const ComputeResource& resource() const { return resource_; }
  [[nodiscard]] const SchedulerConfig& config() const { return config_; }
  /// Engine partition this scheduler's events are bound to.
  [[nodiscard]] std::uint32_t shard() const { return shard_; }
  /// Current simulation time (the scheduler's engine clock).
  [[nodiscard]] SimTime now() const { return engine_.now(); }
  [[nodiscard]] int free_nodes() const { return free_nodes_; }
  [[nodiscard]] std::size_t queue_length() const {
    return queue_.size() - queue_marked_;
  }
  [[nodiscard]] std::size_t running_jobs() const { return running_count_; }
  [[nodiscard]] const SchedulerMetrics& metrics() const { return metrics_; }

  /// Attaches a trace buffer: job lifecycle events, scheduling passes and
  /// outages are recorded there (see obs/trace.hpp). Pass nullptr to
  /// detach. The buffer must outlive the scheduler or the next set_trace.
  void set_trace(obs::TraceBuffer* trace) { trace_ = trace; }
  [[nodiscard]] obs::TraceBuffer* trace() const { return trace_; }

  /// Live (queued or running) job lookup; throws if unknown/finished.
  [[nodiscard]] const Job& job(JobId id) const;

  /// Decayed core-seconds consumed by `user` as of `now` (fair-share
  /// accounting; always 0 when fair_share is disabled or user unknown).
  [[nodiscard]] double fair_share_usage(UserId user, SimTime now) const;

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// One slab entry: a live job plus its per-job scheduler state (end
  /// event, owning reservation), flattened so the per-event lookups that
  /// used to walk three std::maps are one index plus slot fields. Slots
  /// live in a deque for pointer stability — Job& references are held
  /// across re-entrant start/end callbacks — and freed slots recycle
  /// through free_slots_.
  struct JobSlot {
    Job job;
    EventId end_event = kInvalidEvent;
    ReservationId reservation;  ///< invalid unless reservation-attached
    /// Ticket of the job's current queue_ entry (see QueueEntry::seq).
    std::uint64_t queue_seq = 0;
  };

  /// One waiting job in FIFO order. The entry carries what a pass reads
  /// (width, planned duration, liveness), so scanning it never touches the
  /// job's slot. `seq` is an enqueue ticket that increases along queue_,
  /// which finds a job's entry by binary search. A start or a cancel marks
  /// the entry; the next pass that walks it drops it.
  struct QueueEntry {
    JobId id;
    Duration walltime = 0;
    std::uint64_t seq = 0;
    int nodes = 0;
    bool marked = false;
  };

  /// One running non-reservation job. Ordered by (end, id), which is
  /// unique per job: running_ is kept sorted by it.
  struct RunningEntry {
    SimTime end = 0;  ///< planned end: start + planned duration
    JobId id;
    int nodes = 0;
    friend auto operator<=>(const RunningEntry&,
                            const RunningEntry&) = default;
  };

  /// Slot for a live (queued or running) job, or nullptr.
  [[nodiscard]] JobSlot* find_slot(JobId id);
  [[nodiscard]] const JobSlot* find_slot(JobId id) const;
  /// Slot for a job that must be live.
  [[nodiscard]] JobSlot& slot_at(JobId id);
  [[nodiscard]] const JobSlot& slot_at(JobId id) const;
  /// Binds a fresh (or recycled) slot to `id` and returns it.
  [[nodiscard]] JobSlot& acquire_slot(JobId id);
  /// Unbinds `id`'s slot and recycles it. Any Job content the caller still
  /// needs must be moved out first.
  void release_slot(JobId id);

  /// Conservative plan kept alive across events: the availability profile
  /// with every planned job's window subtracted, plus the planned start of
  /// each of the first backfill_depth queued jobs in scheduling order.
  /// `cursor` is the queue_ index where lazy planning stopped; entries
  /// before it are planned or marked. Rebuilt from scratch only when an
  /// event invalidates it (see invalidate_plan call sites).
  struct PlanCache {
    Profile profile{0, 0};
    std::vector<JobId> jobs;     ///< planned prefix, scheduling order
    std::vector<SimTime> starts; ///< parallel planned start times
    std::size_t cursor = 0;
    SimTime built_at = -1;
    bool valid = false;
  };

  /// Requests a scheduling pass: synchronous when called outside the event
  /// loop (direct API use expects immediate effects), otherwise deferred
  /// to one EventPriority::kReplan event per tick so same-timestamp
  /// triggers coalesce into a single pass.
  void request_pass();
  void schedule_pass();
  /// The cache applies only to the plain-FIFO ordering: fair-share and
  /// drain priority reorder the queue in ways a cursor cannot track, so
  /// those configs always replan from scratch (the seed cost).
  [[nodiscard]] bool plan_cacheable() const {
    return config_.plan_cache && !config_.fair_share &&
           config_.drain_period <= 0;
  }
  void invalidate_plan() const { plan_.valid = false; }
  /// From-scratch replan of the first backfill_depth queued jobs.
  void rebuild_plan() const;
  /// Consumes queue_ from plan_.cursor while the plan has room; returns
  /// the number of jobs newly planned. Valid cacheable plans only.
  std::size_t extend_plan() const;
  /// Returns a plan valid for `now`: the live cache (topped up) when
  /// reusable, a fresh rebuild otherwise.
  const PlanCache& ensure_plan() const;
  /// Fills `out` with the availability profile of running jobs,
  /// reservations, outages and fences (queued jobs excluded), reusing its
  /// buffers. Running jobs load as presorted releases: no sort runs.
  void base_profile(Profile& out) const;
  /// Starts a job now. Jobs waiting in queue_ start through start_entry,
  /// which marks their entry first.
  void start_job(Job& job, bool from_reservation);
  void finish_job(JobId id);
  /// Shared completion tail: removes the job, releases nodes, records
  /// metrics and notifies observers. The end event must already be gone.
  void complete_job(JobId id, JobState state);
  /// Preempts one running job for an outage (requeue or outage-kill).
  void preempt_job(JobId id);
  /// Backoff expiry: returns a preempted job to the queue.
  void requeue_job(JobId id);
  void on_reservation_start(ReservationId id);
  void on_reservation_end(ReservationId id);
  /// The entry of reservations_ with `id`, or end() once it has gone.
  [[nodiscard]] std::vector<Reservation>::iterator find_reservation(
      ReservationId id);
  /// queue_ positions of the unmarked entries in scheduling order
  /// (capability first when draining, fair-share within).
  [[nodiscard]] std::vector<std::size_t> ordered_queue() const;
  /// Appends `s`'s job to queue_ under a fresh ticket.
  void enqueue(JobSlot& s);
  /// queue_ position of the entry with ticket `seq` (it must be there).
  [[nodiscard]] std::size_t queue_pos(std::uint64_t seq) const;
  /// Marks an entry whose job started or was cancelled.
  void mark_entry(std::size_t pos);
  /// Marks the entry at `pos` and starts its job.
  void start_entry(std::size_t pos);
  /// Drops the marked entries of queue_[0, end) in one sweep, keeping the
  /// survivors' order and every entry past `end` in place; the plan cursor
  /// moves back by the entries dropped before it. Runs only at the end of
  /// a pass, so nothing shifts entries under a scan.
  void drop_marked(std::size_t end);
  /// Adds / removes a running non-reservation job in running_.
  void track_running(const Job& job);
  void untrack_running(const Job& job);
  /// Next id from this resource's band; throws once the band is exhausted.
  [[nodiscard]] JobId allocate_job_id();
  [[nodiscard]] Duration planned_duration(const Job& job) const;
  void charge_fair_share(UserId user, double core_seconds, SimTime now);

  // --- Shard-awareness (DESIGN.md §5.7) -----------------------------------
  // Every event the scheduler owns is bound to its partition. Completions,
  // wakeups, requeue backoffs and replan passes are kLocal — they touch
  // only this scheduler's state — *except* where feedback couples them to
  // other partitions: workflow members and co-allocated jobs feed engines
  // that submit across sites on completion, and reservation events hold
  // metascheduler promises. Those stay kBarrier. While a feedback job
  // waits in the queue any scheduling pass might start it, and its
  // observers reach other partitions, so the whole partition is serialized
  // for exactly that interval via Engine::serialize_partition (which lifts
  // the engine's locality check from its kLocal events).

  /// True if observers of this job's lifecycle may reach beyond this
  /// partition (workflow engine submits successors, co-allocator
  /// coordinates siblings on other sites).
  [[nodiscard]] static bool is_feedback(const JobRequest& req) {
    return req.workflow.valid() || req.coallocated;
  }
  /// Dispatches on_start_/on_end_ observers.
  void notify_start(const Job& job);
  void notify_end(const Job& job);
  /// Maintains the queued-feedback-job count and the partition's
  /// serialization window (0 -> 1 serializes, 1 -> 0 releases).
  void add_feedback_queued();
  void remove_feedback_queued();

  Engine& engine_;
  ComputeResource resource_;
  SchedulerConfig config_;
  std::deque<JobSlot> slots_;  ///< queued + running jobs (slab)
  std::vector<std::uint32_t> free_slots_;  ///< recyclable slots_ indexes
  /// slot_index_[id - job_id_base_] = the slot holding that job, or
  /// kNoSlot. Local ids are a dense allocation counter, so every per-event
  /// lookup is one vector index instead of a tree walk.
  std::vector<std::uint32_t> slot_index_;
  /// Waiting jobs in FIFO order, plus marked entries not yet dropped.
  std::deque<QueueEntry> queue_;
  std::size_t queue_marked_ = 0;  ///< marked entries still in queue_
  std::uint64_t next_queue_seq_ = 0;
  /// Jobs running outside a reservation, sorted by (planned end, id):
  /// base_profile loads it as presorted releases, and the outage victim
  /// scan reads it.
  std::vector<RunningEntry> running_;
  /// The EASY/FCFS pass's profile, refilled in place by every pass.
  Profile pass_profile_{0, 0};
  /// Pending and active reservations, sorted by id: ids only grow, so
  /// reserve() appends. An entry is erased when its window ends, breaks or
  /// is cancelled, so only pending and open windows remain.
  std::vector<Reservation> reservations_;
  std::vector<JobCallback> on_start_;
  std::vector<JobCallback> on_end_;
  /// Fair-share bookkeeping, dense by user id: decayed usage value and its
  /// reference time ({0, 0} = never charged).
  mutable std::vector<std::pair<double, SimTime>> usage_;
  /// Mutable: estimate_start (const) rebuilds the cache and counts the
  /// replan it caused.
  mutable PlanCache plan_;
  mutable SchedulerMetrics metrics_;
  int free_nodes_ = 0;
  int nodes_down_ = 0;  ///< nodes taken by begin_outage, not yet returned
  /// Latest advised repair time across current outages (0 when none); the
  /// planner treats down nodes as busy until then.
  SimTime outage_until_ = 0;
  std::size_t running_count_ = 0;
  JobId::rep job_id_base_ = 0;  ///< first id of this resource's band
  JobId::rep next_job_ = 0;
  ReservationId::rep next_reservation_ = 0;
  /// Engine partition this scheduler's events live on.
  std::uint32_t shard_ = 0;
  /// Startable queued jobs with cross-partition feedback (workflow /
  /// co-allocated, in queue_, not backoff-pending). While > 0 the
  /// partition is serialized; see the shard-awareness note above.
  std::size_t feedback_queued_ = 0;
  EventId wakeup_ = kInvalidEvent;
  SimTime wakeup_time_ = -1;  ///< tick wakeup_ is armed for (churn guard)
  EventId pass_event_ = kInvalidEvent;  ///< pending same-tick deferred pass
  bool in_pass_ = false;
  /// Set while the conservative pass starts jobs straight from the plan:
  /// those starts keep the cache consistent (window already subtracted,
  /// entry pruned) and must not invalidate it.
  bool in_plan_start_ = false;
  obs::TraceBuffer* trace_ = nullptr;  ///< optional flight recorder
};

}  // namespace tg
