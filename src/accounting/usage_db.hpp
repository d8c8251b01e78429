// The central usage database (TGCDB analogue) and the Recorder that feeds
// it from live simulator components.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/string_pool.hpp"

#include "accounting/charge.hpp"
#include "accounting/ledger.hpp"
#include "accounting/records.hpp"
#include "accounting/segment_log.hpp"
#include "des/engine.hpp"
#include "infra/community.hpp"
#include "infra/platform.hpp"
#include "net/flow.hpp"
#include "sched/pool.hpp"

namespace tg {

/// Job, transfer and session records for one user inside a time window
/// (record pointers, in append order). What `UsageDatabase::records_of`
/// returns and what the feature extractor consumes.
struct UserWindowRecords {
  std::vector<const JobRecord*> jobs;
  std::vector<const TransferRecord*> transfers;
  std::vector<const SessionRecord*> sessions;

  [[nodiscard]] bool empty() const {
    return jobs.empty() && transfers.empty() && sessions.empty();
  }
  void clear() {
    jobs.clear();
    transfers.clear();
    sessions.clear();
  }
};

/// Append-only store of usage records. The modality classifier reads
/// exactly this.
///
/// Each record stream (jobs, transfers, sessions) lives in one SegmentLog.
/// By default the log keeps one resident open segment that never seals —
/// a contiguous array whose per-user posting lists are kept up to date on
/// append, so there is no index to build or invalidate. enable_segments()
/// caps the segment size instead: full segments seal into immutable CSR
/// indexes and spill to disk past a residency budget. Every query below
/// works on both. Concurrent queries are safe; appends must not race
/// queries — the simulator writes single-threaded and the analysis phase
/// only reads.
class UsageDatabase {
 public:
  /// Observes every record the instant it lands in the store, in append
  /// order (the live Recorder appends in completion-time order, so this is
  /// the accounting stream). The reference is to the stored copy and is
  /// valid for the duration of the callback. Streaming analytics
  /// (StreamingExtractor) hang off this hook.
  class RecordObserver {
   public:
    virtual ~RecordObserver() = default;
    virtual void on_job(const JobRecord& r) { (void)r; }
    virtual void on_transfer(const TransferRecord& r) { (void)r; }
    virtual void on_session(const SessionRecord& r) { (void)r; }
  };

  UsageDatabase() = default;
  /// Moves leave the source empty and reusable, not merely valid.
  UsageDatabase(UsageDatabase&& other) noexcept { *this = std::move(other); }
  UsageDatabase& operator=(UsageDatabase&& other) noexcept {
    if (this != &other) {
      job_log_ = std::exchange(other.job_log_, SegmentLog<JobRecord>());
      transfer_log_ =
          std::exchange(other.transfer_log_, SegmentLog<TransferRecord>());
      session_log_ =
          std::exchange(other.session_log_, SegmentLog<SessionRecord>());
      totals_ = std::exchange(other.totals_, {});
      end_user_pool_ = std::exchange(other.end_user_pool_, nullptr);
      observers_ = std::exchange(other.observers_, {});
    }
    return *this;
  }

  /// Caps every stream's segments at config.segment_records (streaming /
  /// out-of-core mode): full segments seal, and past the residency budget
  /// spill to config.spill_dir. Allowed only while the database is empty.
  void enable_segments(const SegmentLogConfig& config) {
    TG_REQUIRE(job_count() == 0 && transfer_count() == 0 &&
                   session_count() == 0,
               "enable_segments requires an empty database");
    job_log_ = SegmentLog<JobRecord>(config, "jobs");
    transfer_log_ = SegmentLog<TransferRecord>(config, "transfers");
    session_log_ = SegmentLog<SessionRecord>(config, "sessions");
  }
  /// True when segments are capped (enable_segments with a positive cap).
  [[nodiscard]] bool segmented() const {
    return job_log_.config().segment_records > 0;
  }
  /// Seals and spills all three streams' full history to the configured
  /// spill directory (see SegmentLog::checkpoint). True when everything
  /// reached disk; false without a spill directory.
  bool checkpoint_segments() {
    const bool jobs_ok = job_log_.checkpoint();
    const bool transfers_ok = transfer_log_.checkpoint();
    const bool sessions_ok = session_log_.checkpoint();
    return jobs_ok && transfers_ok && sessions_ok;
  }
  /// Restart recovery: switches to segmented storage and reopens the
  /// spilled history a previous process left in config.spill_dir (see
  /// SegmentLog::recover_from_spill). The database must be empty. Derived
  /// aggregates (total_nu, disposition counts, end-user limit) are rebuilt
  /// by replaying the recovered job stream.
  void recover_segments(const SegmentLogConfig& config) {
    enable_segments(config);
    job_log_.recover_from_spill();
    transfer_log_.recover_from_spill();
    session_log_.recover_from_spill();
    job_log_.for_each([this](const JobRecord& r) { totals_.add(r); });
  }
  /// Spill/seal counters summed across the three streams.
  [[nodiscard]] SegmentLogStats segment_stats() const {
    SegmentLogStats s;
    for (const SegmentLogStats* p :
         {&job_log_.stats(), &transfer_log_.stats(), &session_log_.stats()}) {
      s.appended += p->appended;
      s.sealed += p->sealed;
      s.spilled += p->spilled;
      s.spilled_bytes += p->spilled_bytes;
      s.spill_failures += p->spill_failures;
    }
    return s;
  }

  /// Subscribes an append observer (notified in subscription order). The
  /// observer must outlive the database. Prefer Scenario::subscribe(),
  /// which forwards here.
  void add_observer(RecordObserver* observer) {
    TG_REQUIRE(observer != nullptr, "observer must be non-null");
    observers_.push_back(observer);
  }

  void add(const JobRecord& r) {
    totals_.add(r);
    const JobRecord& stored = job_log_.append(r);
    for (RecordObserver* o : observers_) o->on_job(stored);
  }
  void add(const TransferRecord& r) {
    const TransferRecord& stored = transfer_log_.append(r);
    for (RecordObserver* o : observers_) o->on_transfer(stored);
  }
  void add(const SessionRecord& r) {
    const SessionRecord& stored = session_log_.append(r);
    for (RecordObserver* o : observers_) o->on_session(stored);
  }

  /// Record counts, O(1).
  [[nodiscard]] std::size_t job_count() const { return job_log_.size(); }
  [[nodiscard]] std::size_t transfer_count() const {
    return transfer_log_.size();
  }
  [[nodiscard]] std::size_t session_count() const {
    return session_log_.size();
  }

  /// A stream as one contiguous array — only while its log has sealed
  /// nothing (always, unless segments are capped). For tests, examples and
  /// experiment binaries; library code reads through for_each().
  [[nodiscard]] std::span<const JobRecord> jobs() const {
    return job_log_.records();
  }
  [[nodiscard]] std::span<const TransferRecord> transfers() const {
    return transfer_log_.records();
  }
  [[nodiscard]] std::span<const SessionRecord> sessions() const {
    return session_log_.records();
  }

  // --- Query surface --------------------------------------------------------
  // Everything below is read-only; time windows are always half-open
  // [from, to) over a record's *end* time (the TGCDB convention: a job is
  // accounted when it finishes). Three tiers, cheapest first:
  //
  //  1. Aggregates maintained on append, O(1): total_nu(),
  //     disposition_count(), end_user_id_limit().
  //  2. Per-user and windowed record queries, served from the per-segment
  //     posting lists: jobs_of(), jobs_ending_in(), records_of() (and its
  //     allocation-free overload).
  //  3. The full-scan visitor for analytics that walk a whole window or the
  //     whole history: for_each<Record>().

  /// Total NUs charged across all job records.
  [[nodiscard]] double total_nu() const { return totals_.nu; }
  /// Number of job records with the given disposition (maintained on
  /// append; O(1)).
  [[nodiscard]] std::uint64_t disposition_count(Disposition d) const {
    return totals_.dispositions[static_cast<std::size_t>(d)];
  }
  /// Job records for `user`, in arrival order.
  [[nodiscard]] std::vector<const JobRecord*> jobs_of(UserId user) const;
  /// Job records whose end time falls in [from, to), in arrival order.
  [[nodiscard]] std::vector<const JobRecord*> jobs_ending_in(
      SimTime from, SimTime to) const;
  /// All of `user`'s records with end time in [from, to), in arrival order.
  [[nodiscard]] UserWindowRecords records_of(UserId user, SimTime from,
                                             SimTime to) const;
  /// Allocation-free variant of records_of: appends into `out` (cleared
  /// first).
  void records_of(UserId user, SimTime from, SimTime to,
                  UserWindowRecords& out) const;

  /// Calls fn(record) for every `Record` (JobRecord, TransferRecord or
  /// SessionRecord) with end time in [from, to), in append order, across
  /// resident and spilled segments alike. References stay valid until the
  /// next append.
  template <class Record, class Fn>
  void for_each(SimTime from, SimTime to, Fn&& fn) const {
    log<Record>().for_each_ending_in(from, to, std::forward<Fn>(fn));
  }
  /// The whole history of one stream, in append order.
  template <class Record, class Fn>
  void for_each(Fn&& fn) const {
    log<Record>().for_each(std::forward<Fn>(fn));
  }

  /// One past the largest user id value present in any stream (0 if empty).
  /// Users are dense small integers, so [0, user_id_limit()) enumerates
  /// every possible record owner in id order.
  [[nodiscard]] UserId::rep user_id_limit() const {
    return std::max({job_log_.user_limit(), transfer_log_.user_limit(),
                     session_log_.user_limit()});
  }

  /// One past the largest interned end-user id in any job record (0 if no
  /// record carries the attribute). Maintained on append; O(1). Analytics
  /// use it to size dense per-end-user tables.
  [[nodiscard]] EndUserId::rep end_user_id_limit() const {
    return totals_.end_user_limit;
  }

  /// Borrows the pool that interned this database's end-user attributes,
  /// for resolving ids back to labels at the I/O boundary (SWF export,
  /// display). The pool must outlive the database. May be null — queries
  /// and analytics never need it.
  void set_end_user_pool(const StringPool* pool) { end_user_pool_ = pool; }
  [[nodiscard]] const StringPool* end_user_pool() const {
    return end_user_pool_;
  }
  /// Label for an interned end-user id; empty when the id is invalid or no
  /// pool is attached.
  [[nodiscard]] std::string_view end_user_label(EndUserId id) const {
    return end_user_pool_ != nullptr ? end_user_pool_->at(id)
                                     : std::string_view{};
  }

  /// No-op: posting lists are maintained on append, so there is nothing to
  /// build before fanning queries out over threads. Kept because perfbench
  /// (whose sources change only together with BENCHMARK.json) times it.
  void ensure_indexes() const {}

 private:
  /// Job-stream aggregates maintained on append.
  struct Totals {
    double nu = 0.0;
    std::array<std::uint64_t, kDispositionCount> dispositions{};
    EndUserId::rep end_user_limit = 0;

    void add(const JobRecord& r) {
      nu += r.charged_nu;
      ++dispositions[static_cast<std::size_t>(r.disposition)];
      if (r.gateway_end_user.valid()) {
        end_user_limit =
            std::max(end_user_limit, r.gateway_end_user.value() + 1);
      }
    }
  };

  template <class Record>
  [[nodiscard]] const SegmentLog<Record>& log() const {
    if constexpr (std::is_same_v<Record, JobRecord>) {
      return job_log_;
    } else if constexpr (std::is_same_v<Record, TransferRecord>) {
      return transfer_log_;
    } else {
      static_assert(std::is_same_v<Record, SessionRecord>,
                    "for_each visits JobRecord, TransferRecord or "
                    "SessionRecord streams");
      return session_log_;
    }
  }

  SegmentLog<JobRecord> job_log_;
  SegmentLog<TransferRecord> transfer_log_;
  SegmentLog<SessionRecord> session_log_;
  Totals totals_;
  const StringPool* end_user_pool_ = nullptr;
  std::vector<RecordObserver*> observers_;
};

/// Wires live components into the database: converts finished jobs into
/// charged JobRecords (debiting the ledger), completed flows into
/// TransferRecords, and exposes a session-logging entry point.
class Recorder {
 public:
  Recorder(const Platform& platform, UsageDatabase& db,
           AllocationLedger* ledger = nullptr, ChargePolicy policy = {});

  /// Observes every scheduler in the pool.
  void attach(SchedulerPool& pool);
  /// Observes one scheduler.
  void attach(ResourceScheduler& scheduler);
  /// Observes completed WAN transfers.
  void attach(FlowManager& flows);

  /// Interactive sessions are logged by the session owner (the workload
  /// generator calls this when a session ends).
  void record_session(UserId user, ResourceId resource, SimTime start,
                      SimTime end, bool viz);

 private:
  void on_job_end(const Job& job);

  const Platform& platform_;
  UsageDatabase& db_;
  AllocationLedger* ledger_;
  ChargePolicy policy_;
};

}  // namespace tg
