// Deterministic metrics: named counters and gauges behind one registry,
// replacing the ad-hoc per-component stat structs as the public surface
// (the structs keep their cells; the registry names and exports them).
//
// Design constraints (see DESIGN.md §5.5):
//  * Hot-path increments are a single inlined integer add on a plain member
//    cell — no lock, no hash lookup, no indirection, no branch. Components
//    embed `obs::Counter`/`obs::Gauge` cells directly (Engine::Stats,
//    SchedulerMetrics) and *bind* them into a registry by name; the
//    registry is touched only at registration and export time.
//  * Export order is the sorted metric name, independent of registration
//    order, so two builds that register in different orders still emit
//    byte-identical metric files.
//  * Nothing here reads a wall clock: every exported value is a function of
//    the simulation alone (wall-clock phases live in obs::PhaseProfiler and
//    are exported as `phase.*`).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace tg::obs {

/// Monotone event count. A plain value cell — embed it in the component
/// that increments it and bind it into a MetricsRegistry for export.
class Counter {
 public:
  constexpr Counter() = default;

  void inc() { ++value_; }
  void add(std::uint64_t n) { value_ += n; }
  /// Snapshot-style publication (copying a legacy stat into an owned cell).
  void set(std::uint64_t v) { value_ = v; }

  [[nodiscard]] std::uint64_t value() const { return value_; }
  /// Counters read as plain integers in arithmetic and comparisons.
  constexpr operator std::uint64_t() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written value (utilization, ratios, high-water marks).
class Gauge {
 public:
  constexpr Gauge() = default;

  void set(double v) { value_ = v; }
  void add(double v) { value_ += v; }
  /// Raises the gauge to `v` if larger (high-water tracking).
  void max_of(double v) {
    if (v > value_) value_ = v;
  }

  [[nodiscard]] double value() const { return value_; }
  constexpr operator double() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Name → metric cell directory. Owns ad-hoc cells created through
/// counter()/gauge() and borrows component-embedded cells
/// registered through bind_*(); snapshot() renders both, sorted by name.
///
/// Registration is not a hot path (linear name lookup, done once at
/// wiring time); increments never touch the registry. Borrowed cells must
/// outlive the registry's last snapshot. Single-threaded, like everything
/// else on the simulation side.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create an owned cell. Throws PreconditionError if `name` is
  /// already registered with a different kind.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);

  /// Registers a borrowed component cell under `name`. Throws on duplicate
  /// names: two components must not claim the same metric.
  void bind_counter(std::string_view name, const Counter& cell);
  void bind_gauge(std::string_view name, const Gauge& cell);

  [[nodiscard]] bool contains(std::string_view name) const;
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  enum class Kind : std::uint8_t { kCounter, kGauge };

  /// One exported metric.
  struct Sample {
    std::string name;
    Kind kind = Kind::kCounter;
    double value = 0.0;
  };

  /// Renders every metric, sorted by name (deterministic export order).
  [[nodiscard]] std::vector<Sample> snapshot() const;

 private:
  struct Entry {
    std::string name;
    Kind kind;
    const void* cell;  ///< owned or borrowed; kind selects the cast
  };

  const Entry* find(std::string_view name) const;
  Entry& add_entry(std::string_view name, Kind kind, const void* cell);

  std::vector<Entry> entries_;
  // Deques: owned cells must never move, bound pointers are handed out.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
};

[[nodiscard]] const char* to_string(MetricsRegistry::Kind kind);

}  // namespace tg::obs

/// Hot-path increment macros for work counters read only through the
/// registry (scheduler passes, queue entries scanned, fit checks). They
/// compile to a single add on the embedded cell, or to nothing with
/// -DTGSIM_DISABLE_METRICS for A/B runs. A tally that an experiment prints
/// or a check reads (jobs finished, outages, ...) calls inc() directly, so
/// that flag never changes a result.
#ifdef TGSIM_DISABLE_METRICS
#define TG_METRIC_INC(cell) ((void)0)
#define TG_METRIC_ADD(cell, n) ((void)0)
#else
#define TG_METRIC_INC(cell) ((cell).inc())
#define TG_METRIC_ADD(cell, n) ((cell).add(n))
#endif
