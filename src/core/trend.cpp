#include "core/trend.hpp"

#include <algorithm>
#include <cmath>

#include "core/features.hpp"

namespace tg {

WindowModalities classify_window(const Platform& platform,
                                 const UsageDatabase& db,
                                 const RuleClassifier& classifier,
                                 SimTime from, SimTime to,
                                 const FeatureConfig& features) {
  const FeatureExtractor extractor(platform, features);
  const auto feats = extractor.extract(db, from, to);
  const auto sets = classifier.classify(feats);
  WindowModalities out(static_cast<std::size_t>(db.user_id_limit()),
                       kInactiveUser);
  for (std::size_t i = 0; i < feats.size(); ++i) {
    if (!sets[i].members.none()) {
      out[static_cast<std::size_t>(feats[i].user.value())] =
          static_cast<std::int8_t>(sets[i].primary);
    }
  }
  return out;
}

std::vector<WindowModalities> classify_series(
    const Platform& platform, const UsageDatabase& db,
    const RuleClassifier& classifier, SimTime from, SimTime to,
    Duration bucket, const FeatureConfig& features) {
  std::vector<WindowModalities> series;
  for (SimTime q = from; q + bucket <= to; q += bucket) {
    series.push_back(
        classify_window(platform, db, classifier, q, q + bucket, features));
  }
  return series;
}

long ModalityChurn::total_transitions() const {
  long total = 0;
  for (const auto& row : transitions) {
    for (long v : row) total += v;
  }
  return total;
}

double ModalityChurn::retention(Modality m) const {
  const auto row = static_cast<std::size_t>(m);
  long row_total = 0;
  for (long v : transitions[row]) row_total += v;
  if (row_total == 0) return 0.0;
  return static_cast<double>(transitions[row][row]) /
         static_cast<double>(row_total);
}

Table ModalityChurn::to_table() const {
  std::vector<std::string> header{"q -> q+1"};
  for (std::size_t m = 0; m < kModalityCount; ++m) {
    header.emplace_back(short_name(static_cast<Modality>(m)));
  }
  header.emplace_back("left");
  Table t(std::move(header));
  for (std::size_t from = 0; from < kModalityCount; ++from) {
    std::vector<std::string> row{short_name(static_cast<Modality>(from))};
    for (std::size_t to = 0; to < kModalityCount; ++to) {
      row.push_back(Table::num(static_cast<std::int64_t>(
          transitions[from][to])));
    }
    row.push_back(Table::num(static_cast<std::int64_t>(departed[from])));
    t.add_row(std::move(row));
  }
  std::vector<std::string> arrivals{"(new)"};
  for (std::size_t m = 0; m < kModalityCount; ++m) {
    arrivals.push_back(Table::num(static_cast<std::int64_t>(arrived[m])));
  }
  arrivals.emplace_back("-");
  t.add_rule();
  t.add_row(std::move(arrivals));
  return t;
}

ModalityChurn churn_from(const std::vector<WindowModalities>& series) {
  ModalityChurn churn;
  for (std::size_t q = 1; q < series.size(); ++q) {
    const WindowModalities& previous = series[q - 1];
    const WindowModalities& current = series[q];
    ++churn.quarter_pairs;
    // One linear sweep over the dense user axis; ids past a shorter
    // window's end are inactive in that window.
    const std::size_t n = std::max(previous.size(), current.size());
    for (std::size_t u = 0; u < n; ++u) {
      const std::int8_t was = u < previous.size() ? previous[u]
                                                  : kInactiveUser;
      const std::int8_t now = u < current.size() ? current[u]
                                                 : kInactiveUser;
      if (was >= 0 && now >= 0) {
        ++churn.transitions[static_cast<std::size_t>(was)]
                           [static_cast<std::size_t>(now)];
      } else if (was >= 0) {
        ++churn.departed[static_cast<std::size_t>(was)];
      } else if (now >= 0) {
        ++churn.arrived[static_cast<std::size_t>(now)];
      }
    }
  }
  return churn;
}

ModalityTrend trend_from(const std::vector<WindowModalities>& series) {
  ModalityTrend trend;
  trend.quarters = static_cast<int>(series.size());
  if (series.size() < 2) return trend;
  std::array<int, kModalityCount> first{};
  std::array<int, kModalityCount> last{};
  for (const std::int8_t m : series.front()) {
    if (m >= 0) ++first[static_cast<std::size_t>(m)];
  }
  for (const std::int8_t m : series.back()) {
    if (m >= 0) ++last[static_cast<std::size_t>(m)];
  }
  for (std::size_t m = 0; m < kModalityCount; ++m) {
    trend.first_quarter_users[m] = first[m];
    trend.last_quarter_users[m] = last[m];
    if (first[m] > 0 && last[m] > 0) {
      const double ratio =
          static_cast<double>(last[m]) / static_cast<double>(first[m]);
      trend.quarterly_growth[m] =
          std::pow(ratio, 1.0 / static_cast<double>(series.size() - 1)) - 1.0;
    }
  }
  return trend;
}

}  // namespace tg
