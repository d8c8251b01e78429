#include "core/streaming.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace tg {

StreamingExtractor::StreamingExtractor(const Platform& platform,
                                       StreamingConfig config)
    : platform_(platform), config_(config), classifier_(config.thresholds) {
  TG_REQUIRE(config_.series_end > config_.series_start,
             "streaming series range is empty");
  TG_REQUIRE(config_.bucket > 0, "streaming bucket must be positive");
  TG_REQUIRE(config_.features.burst_window > 0 &&
                 config_.features.burst_min_jobs >= 2,
             "invalid burst parameters");
  window_from_ = config_.series_start;
  window_to_ = std::min(window_from_ + config_.bucket, config_.series_end);
}

bool StreamingExtractor::admit(SimTime t) {
  if (t < config_.series_start || t >= config_.series_end) {
    TG_METRIC_INC(stats_.records_dropped);
    return false;
  }
  TG_CHECK(!finished_, "record appended after finish()");
  TG_CHECK(t >= window_from_,
           "streaming record at t=" << t
                                    << " regressed before the open window ["
                                    << window_from_ << ", " << window_to_
                                    << ") — the accounting stream must be "
                                       "end-time monotone across windows");
  while (t >= window_to_) close_window();
  return true;
}

FeatureAccumulator& StreamingExtractor::touch(UserId::rep uid) {
  const auto slot = static_cast<std::size_t>(uid);
  if (slot >= users_.size()) users_.resize(slot + 1);
  UserSlot& s = users_[slot];
  if (s.gen != window_gen_) {
    s.gen = window_gen_;
    s.features.reset();
    active_.push_back(static_cast<std::uint32_t>(slot));
  }
  return s.features;
}

void StreamingExtractor::mark_end_user(EndUserId id) {
  const auto slot = static_cast<std::size_t>(id.value());
  if (slot >= eu_stamp_.size()) eu_stamp_.resize(slot + 1, 0);
  if (eu_stamp_[slot] != window_gen_) {
    eu_stamp_[slot] = window_gen_;
    ++eu_count_;
  }
}

void StreamingExtractor::on_job(const JobRecord& r) {
  TG_METRIC_INC(stats_.jobs_ingested);
  if (!admit(r.end_time)) return;
  // The end-user attribute counts for every job record in the window,
  // exactly like count_gateway_end_users (user validity is irrelevant).
  if (r.gateway_end_user.valid()) mark_end_user(r.gateway_end_user);
  if (r.user.valid()) touch(r.user.value()).add(r, platform_);
}

void StreamingExtractor::on_transfer(const TransferRecord& r) {
  TG_METRIC_INC(stats_.transfers_ingested);
  if (admit(r.end_time) && r.user.valid()) touch(r.user.value()).add(r);
}

void StreamingExtractor::on_session(const SessionRecord& r) {
  TG_METRIC_INC(stats_.sessions_ingested);
  if (admit(r.end_time) && r.user.valid()) touch(r.user.value()).add(r);
}

void StreamingExtractor::close_window() {
  TG_CHECK(window_from_ < config_.series_end, "no open window to close");
  // Batch extract walks users in id order; first-touch order sorts to the
  // same sequence.
  std::sort(active_.begin(), active_.end());
  window_.from = window_from_;
  window_.to = window_to_;
  window_.features.clear();
  window_.features.reserve(active_.size());
  for (const std::uint32_t uid : active_) {
    window_.features.push_back(users_[uid].features.finish(
        UserId{static_cast<UserId::rep>(uid)}, config_.features));
  }
  window_.sets = classifier_.classify(window_.features);
  window_.primary_users = {};
  WindowModalities mods(users_.size(), kInactiveUser);
  for (std::size_t i = 0; i < window_.features.size(); ++i) {
    const ModalitySet& set = window_.sets[i];
    if (set.members.none()) continue;
    mods[static_cast<std::size_t>(window_.features[i].user.value())] =
        static_cast<std::int8_t>(set.primary);
    ++window_.primary_users[static_cast<std::size_t>(set.primary)];
  }
  window_.gateway_end_users = eu_count_;
  TG_METRIC_INC(stats_.windows_closed);
  TG_METRIC_ADD(stats_.users_classified, window_.features.size());
  stats_.active_users_high_water.max_of(
      static_cast<double>(active_.size()));
  series_.push_back(std::move(mods));
  ts_primary_.push_back(window_.primary_users);
  ts_gateway_.push_back(window_.gateway_end_users);
  for (const auto& sink : sinks_) sink(window_);

  active_.clear();
  eu_count_ = 0;
  ++window_gen_;
  window_from_ = window_to_;
  window_to_ = std::min(window_from_ + config_.bucket, config_.series_end);
}

void StreamingExtractor::finish() {
  if (finished_) return;
  while (window_from_ < config_.series_end) close_window();
  // Uniform row length: earlier windows predate later users; pad them to
  // the final horizon so churn/trend see rectangular series.
  for (WindowModalities& w : series_) {
    w.resize(users_.size(), kInactiveUser);
  }
  finished_ = true;
}

const std::vector<WindowModalities>& StreamingExtractor::series() const {
  TG_REQUIRE(finished_, "series() requires finish()");
  return series_;
}

ModalityTimeSeries StreamingExtractor::time_series() const {
  TG_REQUIRE(finished_, "time_series() requires finish()");
  ModalityTimeSeries ts;
  ts.bucket = config_.bucket;
  ts.primary_users = ts_primary_;
  ts.gateway_end_users = ts_gateway_;
  return ts;
}

void StreamingExtractor::bind_metrics(obs::MetricsRegistry& registry) const {
  registry.bind_counter("streaming.jobs_ingested", stats_.jobs_ingested);
  registry.bind_counter("streaming.transfers_ingested",
                        stats_.transfers_ingested);
  registry.bind_counter("streaming.sessions_ingested",
                        stats_.sessions_ingested);
  registry.bind_counter("streaming.records_dropped", stats_.records_dropped);
  registry.bind_counter("streaming.windows_closed", stats_.windows_closed);
  registry.bind_counter("streaming.users_classified",
                        stats_.users_classified);
  registry.bind_gauge("streaming.active_users_high_water",
                      stats_.active_users_high_water);
}

}  // namespace tg
