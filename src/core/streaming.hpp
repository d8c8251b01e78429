// Streaming modality measurement: the incremental counterpart of the batch
// FeatureExtractor + classifier pipeline.
//
// A StreamingExtractor hangs off UsageDatabase's append observer and
// consumes the accounting stream record by record, maintaining per-user
// running feature state for the currently open quarter window. When a
// record's end time crosses the window boundary the open window closes:
// active users finalize (in id order), classify, and the quarterly series
// grows by one entry — classification happens *during* the run, and memory
// is bounded by one window's activity, never by total history.
//
// Equivalence contract (DESIGN.md §5.9): at every window boundary the
// finalized features are byte-identical to
// `FeatureExtractor::extract(db, from, to)` over the same records. Both
// paths feed the same per-user FeatureAccumulator in append order — the
// order the live stream arrives in and the order batch extraction walks
// each user's records — so there is one copy of the feature arithmetic
// and no tolerance: memcmp-equal features.
//
// The live Recorder appends in completion-time order, so windows close in
// order; a record that regresses before the open window is a contract
// violation (TG_CHECK). Records ending before the series start or at/after
// the series end are outside every window and are dropped (counted).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "accounting/usage_db.hpp"
#include "core/classifier.hpp"
#include "core/features.hpp"
#include "core/report.hpp"
#include "core/trend.hpp"
#include "obs/metrics.hpp"

namespace tg {

struct StreamingConfig {
  /// Half-open measurement range [series_start, series_end), split into
  /// `bucket`-sized tumbling windows (the last window may be partial),
  /// exactly like quarterly_series(from, to).
  SimTime series_start = 0;
  SimTime series_end = 0;
  Duration bucket = kQuarter;
  FeatureConfig features;
  ClassifierThresholds thresholds;
};

/// One closed window, handed to the optional sink as it closes: the
/// finalized features (id-ordered, byte-identical to the batch extract of
/// the same window), their classifications, and the window's aggregate
/// counts.
struct StreamingWindow {
  SimTime from = 0;
  SimTime to = 0;
  std::vector<UserFeatures> features;
  std::vector<ModalitySet> sets;
  std::array<int, kModalityCount> primary_users{};
  int gateway_end_users = 0;
};

class StreamingExtractor final : public UsageDatabase::RecordObserver {
 public:
  StreamingExtractor(const Platform& platform, StreamingConfig config);

  // RecordObserver: one call per appended record, in stream order.
  void on_job(const JobRecord& r) override;
  void on_transfer(const TransferRecord& r) override;
  void on_session(const SessionRecord& r) override;

  /// Closes every remaining window (trailing windows with no records close
  /// empty) and pads earlier windows' modality rows to the final user id
  /// horizon so all entries have uniform length. Idempotent. Must be
  /// called before reading series()/time_series().
  void finish();
  [[nodiscard]] bool finished() const { return finished_; }

  /// Per-window primary modalities, densely indexed by user id — the
  /// streaming equivalent of classify_series. Available after finish().
  /// Entries are sized by the streaming user id horizon (users that only
  /// appear in dropped records don't widen it); pad against
  /// `db.user_id_limit()` when comparing with the batch path.
  [[nodiscard]] const std::vector<WindowModalities>& series() const;

  /// The F1 quarterly series — the streaming equivalent of
  /// quarterly_series. Available after finish().
  [[nodiscard]] ModalityTimeSeries time_series() const;

  /// Subscribes a sink invoked synchronously as each window closes (before
  /// finish() returns for the trailing windows), in subscription order.
  /// The StreamingWindow is reused across windows: copy out what you keep.
  /// Prefer Scenario::subscribe(), which forwards here.
  void add_window_sink(std::function<void(const StreamingWindow&)> sink) {
    sinks_.push_back(std::move(sink));
  }

  /// Deterministic ingest/classify counters (sim-stream functions only, no
  /// wall clock — DESIGN.md §5.5).
  struct Stats {
    obs::Counter jobs_ingested;
    obs::Counter transfers_ingested;
    obs::Counter sessions_ingested;
    /// Records outside [series_start, series_end) — never classified.
    obs::Counter records_dropped;
    obs::Counter windows_closed;
    obs::Counter users_classified;  ///< summed over closed windows
    obs::Gauge active_users_high_water;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Binds the counters under "streaming.*". Cells are borrowed: this
  /// extractor must outlive the registry's last snapshot.
  void bind_metrics(obs::MetricsRegistry& registry) const;

 private:
  /// One user's slot: the shared feature accumulator plus the generation of
  /// the window it holds. Reset is lazy — on first touch after a window
  /// advance — so closing a window never walks the user slab.
  struct UserSlot {
    std::uint32_t gen = 0;
    FeatureAccumulator features;
  };

  /// Admits a record ending at `t` into the open window, closing windows
  /// the stream has moved past. False (drop) when t is outside the series.
  bool admit(SimTime t);
  FeatureAccumulator& touch(UserId::rep uid);
  void mark_end_user(EndUserId id);
  void close_window();

  const Platform& platform_;
  StreamingConfig config_;
  RuleClassifier classifier_;

  SimTime window_from_ = 0;
  SimTime window_to_ = 0;
  std::uint32_t window_gen_ = 1;
  bool finished_ = false;

  std::vector<UserSlot> users_;         ///< dense by user id
  std::vector<std::uint32_t> active_;   ///< first-touch order; sorted on close
  std::vector<std::uint32_t> eu_stamp_; ///< gateway end-user seen stamps
  int eu_count_ = 0;

  StreamingWindow window_;  ///< reused across closes (sink sees it)
  std::vector<WindowModalities> series_;
  std::vector<std::array<int, kModalityCount>> ts_primary_;
  std::vector<int> ts_gateway_;

  std::vector<std::function<void(const StreamingWindow&)>> sinks_;
  Stats stats_;
};

}  // namespace tg
