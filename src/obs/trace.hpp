// Sim-time-stamped structured tracing.
//
// A TraceBuffer is a fixed-capacity ring of small POD TraceEvents — the
// flight recorder of one simulation run. Components emit events keyed by
// the *simulated* clock and stable integer ids (job ids, resource ids,
// interned end-user ids), never by wall time or addresses, so the trace of
// a given seed is byte-identical across runs, hosts and worker counts:
// analytics run on the caller's thread, and replication workers never
// write here.
//
// Determinism contract (DESIGN.md §5.5): with tracing enabled, the JSONL
// export of `exp_modality_churn --trace=F` is byte-identical at --jobs=1
// and --jobs=4; with tracing disabled (null buffer everywhere), the
// instrumented build's stdout is byte-identical to an uninstrumented one.
//
// Single-writer: one TraceBuffer belongs to one simulation, whose events
// all fire on one thread. Do not hand the same buffer to scenarios
// replicated on different threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tg::obs {

/// Which subsystem emitted the event.
enum class TraceCategory : std::uint8_t {
  kEngine,
  kScheduler,
  kGateway,
  kFault,
  kAnalytics,
  kReplication,
};

[[nodiscard]] const char* to_string(TraceCategory c);

/// What happened. One flat enum for every instrumented site keeps the
/// event 16 bytes of payload + 8 of header and the export table-driven.
enum class TracePoint : std::uint16_t {
  // Scheduler (id = job id unless noted; a/b per event).
  kJobSubmit,    ///< a = nodes, b = requested walltime
  kJobStart,     ///< a = nodes, b = wait duration
  kJobEnd,       ///< a = terminal JobState ordinal, b = ran duration
  kJobCancel,    ///< queued job cancelled
  kJobPreempt,   ///< a = attempt count, b = 1 requeue / 0 outage-kill
  kJobRequeue,   ///< backoff expired, job re-entered the queue
  kSchedulePass, ///< span; id = resource id, a = jobs started, b = queue len
  kOutageBegin,  ///< id = resource id, a = nodes taken, b = advised repair
  kOutageEnd,    ///< id = resource id, a = nodes returned
  // Gateway (id = interned end-user id).
  kGatewaySubmit,  ///< a = gateway id, b = job id
  kGatewayDrop,    ///< a = gateway id; submission lost to a brownout
  kBrownoutBegin,  ///< id = gateway id, a = planned duration
  kBrownoutEnd,    ///< id = gateway id
  kHazardFail,     ///< id = job id, a = resource id
  // Run / analytics phases (spans; sim clock is frozen post-horizon, so
  // these order by ring sequence and carry result payloads).
  kScenarioRun,    ///< span; a = events fired, b = job records
  kFeatureExtract, ///< span; a = users extracted
  kClassify,       ///< span; a = users classified
  kAggregate,      ///< span; a = report rows
  kClassifySeries, ///< span; a = windows classified
  kReplicate,      ///< span; id = wave index, a = replication count
};

[[nodiscard]] const char* to_string(TracePoint p);

/// Instant event or span edge. 40 bytes, trivially copyable.
struct TraceEvent {
  /// Simulated milliseconds (SimTime; obs stays below src/des, so the
  /// alias is not visible here).
  std::int64_t sim_time = 0;
  std::int64_t id = 0;  ///< stable subject id (job, resource, end user...)
  std::int64_t a = 0;   ///< payload, meaning per TracePoint
  std::int64_t b = 0;
  TracePoint point = TracePoint::kJobSubmit;
  TraceCategory category = TraceCategory::kEngine;
  /// kInstant, or the begin/end edge of a scoped span.
  enum class Phase : std::uint8_t { kInstant, kBegin, kEnd } phase =
      Phase::kInstant;
  std::uint8_t depth = 0;  ///< span nesting depth when emitted
};

[[nodiscard]] const char* to_string(TraceEvent::Phase p);

/// Fixed-capacity ring buffer of TraceEvents. When full, the oldest event
/// is overwritten and `dropped()` counts it — capacity pressure changes
/// which prefix survives, never the content or order of what does.
class TraceBuffer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 18;  // 10 MiB

  explicit TraceBuffer(std::size_t capacity = kDefaultCapacity);

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  void emit(std::int64_t sim_time, TraceCategory category, TracePoint point,
            std::int64_t id = 0, std::int64_t a = 0, std::int64_t b = 0,
            TraceEvent::Phase phase = TraceEvent::Phase::kInstant);

  /// Events currently held (<= capacity).
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  /// Events overwritten after the ring filled.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Total emit() calls (size() + dropped()).
  [[nodiscard]] std::uint64_t emitted() const { return dropped_ + count_; }
  /// Current span nesting depth (maintained by TraceSpan).
  [[nodiscard]] std::uint8_t depth() const { return depth_; }

  /// Visits surviving events oldest-to-newest.
  template <class Fn>
  void for_each(Fn fn) const {
    const std::size_t cap = ring_.size();
    const std::size_t first = (head_ + cap - count_) % cap;
    for (std::size_t i = 0; i < count_; ++i) {
      fn(ring_[(first + i) % cap]);
    }
  }

  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

 private:
  friend class TraceSpan;

  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  ///< next write position
  std::size_t count_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint8_t depth_ = 0;
};

/// Scoped span: emits the kBegin edge on construction and the kEnd edge
/// (carrying the payload set via set_payload) on destruction, tracking
/// nesting depth in the buffer. Both edges carry the construction-time sim
/// time: the simulated clock cannot advance inside a synchronous scope, so
/// a span brackets *work at one instant* (a scheduler pass, an analytics
/// phase), not a sim-time interval. A null buffer makes the span a no-op.
class TraceSpan {
 public:
  TraceSpan(TraceBuffer* buffer, std::int64_t sim_time,
            TraceCategory category, TracePoint point, std::int64_t id = 0);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Result payload for the kEnd edge (jobs started, users classified...).
  void set_payload(std::int64_t a, std::int64_t b = 0) {
    a_ = a;
    b_ = b;
  }

 private:
  TraceBuffer* buffer_;
  std::int64_t sim_time_;
  std::int64_t id_;
  std::int64_t a_ = 0;
  std::int64_t b_ = 0;
  TraceCategory category_;
  TracePoint point_;
};

}  // namespace tg::obs
