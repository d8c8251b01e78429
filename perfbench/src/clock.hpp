// Clocks and spans for the benchmark driver.
//
// Every timed phase reads two clocks: the process CPU clock, which is what
// the benchmark reports and gates on, and the steady clock, kept as a
// diagnostic. The CPU clock counts only time this process ran, so time
// other processes on the machine take does not show, while work the
// program moves to another thread still does. In a VM guest it still
// counts the slowdown other tenants cause on shared cores, caches and
// memory. The difference wall - cpu is time the process waited: I/O,
// page faults served from disk, or a CPU it did not get.
#pragma once

#include <cstddef>
#include <ctime>
#include <iosfwd>
#include <utility>
#include <vector>

namespace perfbench {

struct Stamp {
  double cpu = 0.0;   ///< seconds on CLOCK_PROCESS_CPUTIME_ID
  double wall = 0.0;  ///< seconds on CLOCK_MONOTONIC
};

[[nodiscard]] inline Stamp now() {
  timespec cpu{};
  timespec wall{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
  clock_gettime(CLOCK_MONOTONIC, &wall);
  return {static_cast<double>(cpu.tv_sec) + 1e-9 * static_cast<double>(cpu.tv_nsec),
          static_cast<double>(wall.tv_sec) +
              1e-9 * static_cast<double>(wall.tv_nsec)};
}

/// CPU seconds only: one clock read, for tight per-query loops.
[[nodiscard]] inline double cpu_now() {
  timespec cpu{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
  return static_cast<double>(cpu.tv_sec) +
         1e-9 * static_cast<double>(cpu.tv_nsec);
}

struct Interval {
  double cpu = 0.0;
  double wall = 0.0;

  /// Time the phase spent not running on a CPU (never negative).
  [[nodiscard]] double wait() const { return wall > cpu ? wall - cpu : 0.0; }
  Interval& operator+=(const Interval& o) {
    cpu += o.cpu;
    wall += o.wall;
    return *this;
  }
};

[[nodiscard]] inline Interval between(const Stamp& a, const Stamp& b) {
  return {b.cpu - a.cpu, b.wall - a.wall};
}

/// In-memory span recorder. Spans nest by call order: a span opened while
/// another is open becomes its child. Disabled tracers record nothing, so
/// the untraced run pays only the phase clock reads. Names must be string
/// literals (they are stored as pointers).
class Tracer {
 public:
  struct Span {
    const char* name = "";
    int parent = -1;
    Stamp start;
    Stamp end;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Runs a phase inside a span named `name` and returns its interval; the
  /// interval is measured whether or not the tracer records spans.
  template <class F>
  Interval timed(const char* name, F&& body) {
    const int id = open(name);
    const Stamp start = now();
    std::forward<F>(body)();
    const Stamp end = now();
    close(id, start, end);
    return between(start, end);
  }

  /// Runs `body` inside a span named `name` and returns what it returns.
  /// Reads no clock when the tracer is disabled.
  template <class F>
  decltype(auto) span(const char* name, F&& body) {
    if (!enabled_) return std::forward<F>(body)();
    struct Closer {
      Tracer& tracer;
      int id;
      Stamp start = now();
      ~Closer() { tracer.close(id, start, now()); }
    } closer{*this, open(name)};
    return std::forward<F>(body)();
  }

  /// Sum of the CPU durations of every span named `name`.
  [[nodiscard]] double total_cpu(const char* name) const;
  /// CPU durations of every span named `name`, in seconds.
  [[nodiscard]] std::vector<double> durations_cpu(const char* name) const;

  /// One JSON object per span: name, id, parent, start and end on both
  /// clocks, and self time (the span minus the time its children cover).
  void write_jsonl(std::ostream& out) const;
  /// Per-name totals of span and self time, heaviest self time first.
  void write_summary(std::ostream& out) const;

 private:
  int open(const char* name);
  void close(int id, const Stamp& start, const Stamp& end);
  /// Self time of every span, indexed like spans_.
  [[nodiscard]] std::vector<Interval> self_times() const;

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
