// Quarter-over-quarter modality dynamics.
//
// The abstract's second clause — understand "how they go about achieving
// [their objectives] ... so that we can make changes in the TeraGrid to
// better support them" — needs more than a snapshot: it needs to know how
// users *move* between modalities (exploratory users graduating to
// capacity production, capacity users adopting ensembles, gateway-first
// users appearing). This module computes per-quarter transition (churn)
// matrices and modality growth rates from classified records.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/classifier.hpp"
#include "core/modality.hpp"
#include "util/table.hpp"

namespace tg {

/// One classified window, densely indexed by user id: entry u is the
/// modality ordinal of user u's primary classification, or kInactiveUser
/// when u had no classified activity in the window. Every window drawn
/// from one database has the same length (the database's user_id_limit).
using WindowModalities = std::vector<std::int8_t>;
inline constexpr std::int8_t kInactiveUser = -1;

/// Primary modality per user with any classified activity in [from, to).
/// One entry of the quarterly series the churn/trend statistics run over;
/// windows are independent, so callers may compute them in parallel and
/// reduce with churn_from / trend_from.
[[nodiscard]] WindowModalities classify_window(
    const Platform& platform, const UsageDatabase& db,
    const RuleClassifier& classifier, SimTime from, SimTime to,
    const FeatureConfig& features = {});

/// The window series for [from, to) in whole `bucket` steps,
/// chronological.
[[nodiscard]] std::vector<WindowModalities> classify_series(
    const Platform& platform, const UsageDatabase& db,
    const RuleClassifier& classifier, SimTime from, SimTime to,
    Duration bucket = kQuarter, const FeatureConfig& features = {});

/// Transition counts between consecutive reporting quarters.
struct ModalityChurn {
  /// [from][to] = users primarily in `from` during quarter q that are
  /// primarily in `to` during quarter q+1 (summed over quarter pairs).
  std::array<std::array<long, kModalityCount>, kModalityCount> transitions{};
  /// Users active in q but not in q+1, by their quarter-q modality.
  std::array<long, kModalityCount> departed{};
  /// Users active in q+1 but not in q, by their quarter-(q+1) modality.
  std::array<long, kModalityCount> arrived{};
  int quarter_pairs = 0;

  [[nodiscard]] long total_transitions() const;
  /// Of users in `m` one quarter, the fraction still primarily `m` the
  /// next (diagonal mass / row mass; 0 if the row is empty).
  [[nodiscard]] double retention(Modality m) const;
  [[nodiscard]] Table to_table() const;
};

/// Churn over an already-classified window series (consecutive windows in
/// chronological order, as produced by classify_window per quarter).
[[nodiscard]] ModalityChurn churn_from(
    const std::vector<WindowModalities>& series);

/// Per-modality compound quarterly growth rate of primary-user counts over
/// the series (last vs first non-empty quarter, annualized per quarter).
struct ModalityTrend {
  std::array<double, kModalityCount> quarterly_growth{};  ///< e.g. 0.18 = +18%/q
  std::array<int, kModalityCount> first_quarter_users{};
  std::array<int, kModalityCount> last_quarter_users{};
  int quarters = 0;
};

/// Growth over an already-classified window series.
[[nodiscard]] ModalityTrend trend_from(
    const std::vector<WindowModalities>& series);

}  // namespace tg
