// Modality reporting: the tables the paper wants the TeraGrid to produce.
#pragma once

#include <array>
#include <vector>

#include "core/classifier.hpp"
#include "core/modality.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"

namespace tg {

struct ModalityRow {
  Modality modality = Modality::kCapacityBatch;
  int users = 0;          ///< users exhibiting the modality (multi-member)
  int primary_users = 0;  ///< users attributed primarily to it
  long jobs = 0;          ///< jobs of primary-attributed users
  double nu = 0.0;        ///< NUs of primary-attributed users
  double user_share = 0.0;
  double nu_share = 0.0;
};

class ThreadPool;

class ModalityReport {
 public:
  /// Builds the modality usage report over the window [from, to). A
  /// non-null `pool` parallelizes the per-user feature extraction
  /// (deterministic: byte-identical output at any worker count). A
  /// non-null `trace` records extract/classify/aggregate spans — emitted
  /// from the coordinating thread only, so the trace stays deterministic
  /// at any worker count.
  static ModalityReport build(const Platform& platform,
                              const UsageDatabase& db,
                              const RuleClassifier& classifier, SimTime from,
                              SimTime to, FeatureConfig feature_config = {},
                              ThreadPool* pool = nullptr,
                              obs::TraceBuffer* trace = nullptr);

  [[nodiscard]] const std::array<ModalityRow, kModalityCount>& rows() const {
    return rows_;
  }
  [[nodiscard]] const ModalityRow& row(Modality m) const {
    return rows_[static_cast<std::size_t>(m)];
  }
  [[nodiscard]] int total_users() const { return total_users_; }
  [[nodiscard]] long total_jobs() const { return total_jobs_; }
  [[nodiscard]] double total_nu() const { return total_nu_; }
  /// Distinct gateway end-user attributes observed (the paper's gateway
  /// user count; undercounts truth by the attribute-coverage gap).
  [[nodiscard]] int gateway_end_users() const { return gateway_end_users_; }

  /// Renders the headline table (T2).
  [[nodiscard]] Table to_table() const;

 private:
  std::array<ModalityRow, kModalityCount> rows_{};
  int total_users_ = 0;
  long total_jobs_ = 0;
  double total_nu_ = 0.0;
  int gateway_end_users_ = 0;
};

/// Quarterly active-user counts per modality — the F1 time-series figure.
/// Element [q][m] is the number of users whose quarter-q usage classifies
/// primarily as modality m; gateway end-user attribute counts are reported
/// separately in `gateway_end_users[q]`.
struct ModalityTimeSeries {
  std::vector<std::array<int, kModalityCount>> primary_users;
  std::vector<int> gateway_end_users;
  Duration bucket = kQuarter;
};

/// A non-null `pool` fans the (independent) quarterly windows out across
/// its workers and collects them in index order — byte-identical to the
/// sequential pass at any worker count. Must not be called from a task
/// already running on `pool`.
[[nodiscard]] ModalityTimeSeries quarterly_series(
    const Platform& platform, const UsageDatabase& db,
    const RuleClassifier& classifier, SimTime from, SimTime to,
    FeatureConfig feature_config = {}, ThreadPool* pool = nullptr,
    obs::TraceBuffer* trace = nullptr);

/// Distinct gateway end-user attributes in job records ending in [from,to).
/// One visitor pass over the window into a dense seen-bitmap sized by the
/// database's interned end-user id limit — no strings, no set.
[[nodiscard]] int count_gateway_end_users(const UsageDatabase& db,
                                          SimTime from, SimTime to);

}  // namespace tg
