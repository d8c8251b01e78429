#include "core/report.hpp"

#include <algorithm>
#include <cstdint>

namespace tg {

int count_gateway_end_users(const UsageDatabase& db, SimTime from,
                            SimTime to) {
  const auto limit = static_cast<std::size_t>(db.end_user_id_limit());
  if (limit == 0) return 0;
  std::vector<std::uint8_t> seen(limit, 0);
  int count = 0;
  const auto mark = [&](const JobRecord& r) {
    if (!r.gateway_end_user.valid()) return;
    std::uint8_t& slot = seen[static_cast<std::size_t>(
        r.gateway_end_user.value())];
    count += 1 - slot;
    slot = 1;
  };
  db.for_each<JobRecord>(from, to, mark);
  return count;
}

ModalityReport ModalityReport::build(const Platform& platform,
                                     const UsageDatabase& db,
                                     const RuleClassifier& classifier,
                                     SimTime from, SimTime to,
                                     FeatureConfig feature_config,
                                     obs::TraceBuffer* trace) {
  // Spans are stamped with the window end: analytics run post-horizon,
  // where the simulated clock no longer advances.
  const FeatureExtractor extractor(platform, feature_config);
  std::vector<UserFeatures> features;
  {
    obs::TraceSpan span(trace, to, obs::TraceCategory::kAnalytics,
                        obs::TracePoint::kFeatureExtract);
    features = extractor.extract(db, from, to);
    span.set_payload(static_cast<std::int64_t>(features.size()));
  }
  std::vector<ModalitySet> sets;
  {
    obs::TraceSpan span(trace, to, obs::TraceCategory::kAnalytics,
                        obs::TracePoint::kClassify);
    sets = classifier.classify(features);
    span.set_payload(static_cast<std::int64_t>(sets.size()));
  }
  obs::TraceSpan aggregate_span(trace, to, obs::TraceCategory::kAnalytics,
                                obs::TracePoint::kAggregate);
  aggregate_span.set_payload(static_cast<std::int64_t>(kModalityCount));

  ModalityReport report;
  for (std::size_t m = 0; m < kModalityCount; ++m) {
    report.rows_[m].modality = static_cast<Modality>(m);
  }
  for (std::size_t i = 0; i < features.size(); ++i) {
    const UserFeatures& f = features[i];
    const ModalitySet& s = sets[i];
    if (s.members.none()) continue;
    ++report.total_users_;
    report.total_jobs_ += f.jobs;
    report.total_nu_ += f.total_nu;
    for (std::size_t m = 0; m < kModalityCount; ++m) {
      if (s.members.test(m)) ++report.rows_[m].users;
    }
    auto& prow = report.rows_[static_cast<std::size_t>(s.primary)];
    ++prow.primary_users;
    prow.jobs += f.jobs;
    prow.nu += f.total_nu;
  }
  for (auto& row : report.rows_) {
    row.user_share = report.total_users_ > 0
                         ? static_cast<double>(row.primary_users) /
                               report.total_users_
                         : 0.0;
    row.nu_share = report.total_nu_ > 0 ? row.nu / report.total_nu_ : 0.0;
  }
  report.gateway_end_users_ = count_gateway_end_users(db, from, to);
  return report;
}

Table ModalityReport::to_table() const {
  Table t({"Modality", "Users", "Primary", "Jobs", "NUs (M)", "User %",
           "NU %"});
  for (const auto& row : rows_) {
    t.add_row({to_string(row.modality), Table::num(std::int64_t{row.users}),
               Table::num(std::int64_t{row.primary_users}),
               Table::num(static_cast<std::int64_t>(row.jobs)),
               Table::num(row.nu / 1e6, 3), Table::pct(row.user_share),
               Table::pct(row.nu_share)});
  }
  t.add_rule();
  t.add_row({"Total", Table::num(std::int64_t{total_users_}), "",
             Table::num(static_cast<std::int64_t>(total_jobs_)),
             Table::num(total_nu_ / 1e6, 3), "", ""});
  return t;
}

ModalityTimeSeries quarterly_series(const Platform& platform,
                                    const UsageDatabase& db,
                                    const RuleClassifier& classifier,
                                    SimTime from, SimTime to,
                                    FeatureConfig feature_config,
                                    obs::TraceBuffer* trace) {
  obs::TraceSpan span(trace, to, obs::TraceCategory::kAnalytics,
                      obs::TracePoint::kClassifySeries);
  ModalityTimeSeries series;
  const FeatureExtractor extractor(platform, feature_config);
  for (SimTime q = from; q < to; q += series.bucket) {
    const SimTime end = std::min(q + series.bucket, to);
    std::array<int, kModalityCount> primary{};
    for (const ModalitySet& s :
         classifier.classify(extractor.extract(db, q, end))) {
      if (s.members.none()) continue;
      ++primary[static_cast<std::size_t>(s.primary)];
    }
    series.primary_users.push_back(primary);
    series.gateway_end_users.push_back(count_gateway_end_users(db, q, end));
  }
  span.set_payload(static_cast<std::int64_t>(series.primary_users.size()));
  return series;
}

}  // namespace tg
