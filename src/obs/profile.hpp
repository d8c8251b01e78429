// Wall-clock phase profiling for the analytics / replication pipeline.
//
// Where TraceBuffer records *simulated* time (and is part of the
// determinism contract), PhaseProfiler records *wall* time — where a run
// actually spends its seconds: simulate, feature extraction, replication
// waves, report rendering. Its output is inherently non-deterministic and
// therefore only ever exported through `--metrics` (never stdout, never
// the trace file), so profiled runs stay byte-identical on every surface
// the determinism contract covers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tg::obs {

class MetricsRegistry;

class PhaseProfiler {
 public:
  struct Phase {
    std::string name;
    double seconds = 0.0;
    std::uint64_t calls = 0;
  };

  /// RAII measurement: accumulates the scope's wall time into the phase on
  /// destruction.
  class Scope {
   public:
    Scope(Scope&& other) noexcept
        : profiler_(other.profiler_), index_(other.index_),
          start_(other.start_) {
      other.profiler_ = nullptr;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope& operator=(Scope&&) = delete;
    ~Scope();

   private:
    friend class PhaseProfiler;
    Scope(PhaseProfiler* profiler, std::size_t index)
        : profiler_(profiler), index_(index),
          start_(std::chrono::steady_clock::now()) {}

    PhaseProfiler* profiler_;
    std::size_t index_;
    std::chrono::steady_clock::time_point start_;
  };

  /// Starts measuring `phase` (find-or-create by name).
  [[nodiscard]] Scope measure(std::string_view phase);

  /// Phases in first-use order.
  [[nodiscard]] const std::vector<Phase>& phases() const { return phases_; }

  /// Exports every phase as `phase.<name>.seconds` (gauge) and
  /// `phase.<name>.calls` (counter) owned by `registry`.
  void publish(MetricsRegistry& registry) const;

 private:
  std::size_t index_of(std::string_view phase);

  std::vector<Phase> phases_;
};

}  // namespace tg::obs
