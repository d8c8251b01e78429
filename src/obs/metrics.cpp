#include "obs/metrics.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace tg::obs {

const char* to_string(MetricsRegistry::Kind kind) {
  switch (kind) {
    case MetricsRegistry::Kind::kCounter: return "counter";
    case MetricsRegistry::Kind::kGauge: return "gauge";
  }
  return "unknown";
}

const MetricsRegistry::Entry* MetricsRegistry::find(
    std::string_view name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

MetricsRegistry::Entry& MetricsRegistry::add_entry(std::string_view name,
                                                   Kind kind,
                                                   const void* cell) {
  TG_REQUIRE(!name.empty(), "metric name must not be empty");
  entries_.push_back(Entry{std::string(name), kind, cell});
  return entries_.back();
}

Counter& MetricsRegistry::counter(std::string_view name) {
  if (const Entry* e = find(name)) {
    TG_REQUIRE(e->kind == Kind::kCounter,
               "metric '" << std::string(name) << "' already registered as "
                          << to_string(e->kind));
    return *const_cast<Counter*>(static_cast<const Counter*>(e->cell));
  }
  Counter& cell = counters_.emplace_back();
  add_entry(name, Kind::kCounter, &cell);
  return cell;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  if (const Entry* e = find(name)) {
    TG_REQUIRE(e->kind == Kind::kGauge,
               "metric '" << std::string(name) << "' already registered as "
                          << to_string(e->kind));
    return *const_cast<Gauge*>(static_cast<const Gauge*>(e->cell));
  }
  Gauge& cell = gauges_.emplace_back();
  add_entry(name, Kind::kGauge, &cell);
  return cell;
}

void MetricsRegistry::bind_counter(std::string_view name,
                                   const Counter& cell) {
  TG_REQUIRE(find(name) == nullptr,
             "metric '" << std::string(name) << "' bound twice");
  add_entry(name, Kind::kCounter, &cell);
}

void MetricsRegistry::bind_gauge(std::string_view name, const Gauge& cell) {
  TG_REQUIRE(find(name) == nullptr,
             "metric '" << std::string(name) << "' bound twice");
  add_entry(name, Kind::kGauge, &cell);
}

bool MetricsRegistry::contains(std::string_view name) const {
  return find(name) != nullptr;
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::snapshot() const {
  std::vector<Sample> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) {
    const double value =
        e.kind == Kind::kCounter
            ? static_cast<double>(static_cast<const Counter*>(e.cell)->value())
            : static_cast<const Gauge*>(e.cell)->value();
    out.push_back(Sample{e.name, e.kind, value});
  }
  std::sort(out.begin(), out.end(),
            [](const Sample& a, const Sample& b) { return a.name < b.name; });
  return out;
}

}  // namespace tg::obs
