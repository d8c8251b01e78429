// Per-resource scheduling metrics, accumulated as jobs finish.
//
// The tallies live in obs value cells so a MetricsRegistry can export them
// by reference (see bind_metrics); every accessor still reads as a plain
// integer or double, and the record_* hot paths stay single inlined adds.
#pragma once

#include <cstdint>
#include <string_view>

#include "des/time.hpp"
#include "obs/metrics.hpp"
#include "util/stats.hpp"

namespace tg {

class SchedulerMetrics {
 public:
  void record_finished(Duration wait, Duration runtime, int nodes, int cores,
                       double bounded_slowdown, bool killed, bool failed);
  /// One outage preemption: `lost_core_seconds` of work was discarded;
  /// `killed` when the job's retry budget was spent (terminal
  /// kKilledByOutage) rather than requeued.
  void record_preempted(double lost_core_seconds, bool killed);
  /// One outage that took `nodes_taken` nodes out of service.
  void record_outage(int nodes_taken);
  /// One from-scratch replan: the cached plan was invalid (or caching is
  /// off) and the queue prefix was planned against a fresh profile.
  void record_replan_full() { replan_full_.inc(); }
  /// One replan served from the live plan cache (possibly extended by a
  /// few newly visible jobs).
  void record_replan_incremental() { replan_incremental_.inc(); }
  /// One pass request absorbed by an already-pending same-tick pass.
  void record_replan_coalesced() { replan_coalesced_.inc(); }
  /// One scheduling pass ran.
  void record_pass() { TG_METRIC_INC(passes_); }
  /// Work done inside a pass: queue entries examined (marked ones
  /// included) and fits_at / earliest_fit calls made.
  void record_pass_work([[maybe_unused]] std::uint64_t scanned,
                        [[maybe_unused]] std::uint64_t fit_checks) {
    TG_METRIC_ADD(queue_scanned_, scanned);
    TG_METRIC_ADD(fit_checks_, fit_checks);
  }

  [[nodiscard]] std::uint64_t jobs_finished() const { return finished_; }
  [[nodiscard]] std::uint64_t jobs_killed() const { return killed_; }
  [[nodiscard]] std::uint64_t jobs_failed() const { return failed_; }
  [[nodiscard]] std::uint64_t jobs_preempted() const { return preempted_; }
  [[nodiscard]] std::uint64_t jobs_requeued() const {
    return preempted_ - outage_killed_;
  }
  [[nodiscard]] std::uint64_t jobs_killed_by_outage() const {
    return outage_killed_;
  }
  [[nodiscard]] std::uint64_t outages() const { return outages_; }
  [[nodiscard]] std::uint64_t replans_full() const { return replan_full_; }
  [[nodiscard]] std::uint64_t replans_incremental() const {
    return replan_incremental_;
  }
  [[nodiscard]] std::uint64_t replans_coalesced() const {
    return replan_coalesced_;
  }
  [[nodiscard]] std::uint64_t passes() const { return passes_; }
  [[nodiscard]] std::uint64_t queue_scanned() const { return queue_scanned_; }
  [[nodiscard]] std::uint64_t fit_checks() const { return fit_checks_; }
  [[nodiscard]] int outage_nodes_taken() const {
    return static_cast<int>(outage_nodes_.value());
  }
  /// Core-seconds of partial work discarded by outage preemptions.
  [[nodiscard]] double lost_core_seconds() const { return lost_; }
  [[nodiscard]] const RunningStats& wait_seconds() const { return wait_; }
  [[nodiscard]] const RunningStats& slowdown() const { return slowdown_; }
  /// Core-seconds actually delivered to applications.
  [[nodiscard]] double delivered_core_seconds() const { return delivered_; }

  /// Utilization of `total_cores` over [0, horizon].
  [[nodiscard]] double utilization(int total_cores, SimTime horizon) const;

  /// Registers every tally with `registry` as "<prefix>.jobs_finished" etc.
  /// The cells live here; the registry must not outlive this object.
  void bind_metrics(obs::MetricsRegistry& registry,
                    std::string_view prefix) const;

 private:
  obs::Counter finished_;
  obs::Counter killed_;
  obs::Counter failed_;
  obs::Counter preempted_;
  obs::Counter outage_killed_;
  obs::Counter outages_;
  obs::Counter outage_nodes_;
  obs::Counter replan_full_;
  obs::Counter replan_incremental_;
  obs::Counter replan_coalesced_;
  obs::Counter passes_;
  obs::Counter queue_scanned_;
  obs::Counter fit_checks_;
  RunningStats wait_;
  RunningStats slowdown_;
  obs::Gauge delivered_;
  obs::Gauge lost_;
};

}  // namespace tg
