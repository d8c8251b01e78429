// Shared helpers for the experiment binaries (exp_*): each binary
// regenerates one table/figure of the reconstructed evaluation (see
// DESIGN.md §4) and optionally dumps CSV next to its stdout table.
//
// Every binary parses the same declarative flag surface (exp::Options) and
// wires observability the same way (exp::Observability): `--trace=FILE`
// and `--metrics=FILE` export the obs subsystem's structured trace and
// metric registry without touching stdout, so the primary outputs stay
// byte-stable whether or not observability is enabled.
#pragma once

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "des/engine.hpp"
#include "fault/invariants.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "parallel/replicate.hpp"
#include "util/csv.hpp"
#include "util/memstats.hpp"
#include "util/table.hpp"

namespace tg::exp {

/// The declarative flag surface shared by every experiment and benchmark
/// binary. parse() replaces the old per-binary argv scans: it recognizes
/// exactly the flags below, prints usage and exits(2) on anything else —
/// an unknown flag or a malformed numeric value — and exits(0) on --help,
/// so a typo can no longer silently run the default configuration.
struct Options {
  /// --jobs=N: worker count for replication/analytics fan-out. 0 = one
  /// worker per hardware thread; 1 = inline, no threads. Output is
  /// byte-identical at every level (Replicator determinism contract).
  std::size_t jobs = 0;
  /// --engine-stats: append the event-core counters after the tables.
  bool engine_stats = false;
  /// --stats: append a run-resource summary (throughput, RSS, allocs).
  bool stats = false;
  /// --check-invariants: audit the run and exit non-zero on violation.
  bool check_invariants = false;
  /// --exact-replan: disable the incremental plan cache and replan every
  /// scheduling decision from scratch (the reference planner). Primary
  /// outputs must be byte-identical with or without this flag — CI diffs
  /// the two (see tests/golden_determinism.cmake).
  bool exact_replan = false;
  /// --audit-every=DAYS: run the mid-run invariant audit
  /// (AuditPhase::kMidRun — families 1-5 plus node-accounting bounds)
  /// every DAYS of sim time while the scenario runs. The scenario throws
  /// InvariantError at the first failing audit, pinpointing *when* a
  /// conservation law broke instead of discovering it after the drain.
  /// 0 disables. Fractions work: --audit-every=0.5 audits twice a day.
  double audit_every = 0.0;
  /// --mc-random=N: skip the experiment and instead run one canonical
  /// replay plus N random tie-break replays of the scenario, requiring
  /// identical terminal records and a clean invariant audit from every
  /// replay (see mc/random_check.hpp). Exits non-zero on divergence.
  std::size_t mc_random = 0;
  /// --mc-seed=S: derives the --mc-random tie-break streams.
  std::uint64_t mc_seed = 1;
  /// --streaming: produce the modality series with the StreamingExtractor
  /// (classify-on-advance during the run) instead of the batch
  /// quarterly_series pass. Primary outputs must be byte-identical either
  /// way — CI diffs the two (see tests/golden_streaming.cmake).
  bool streaming = false;
  /// --segment-cap=N: with --streaming, cap the record log's segments at N
  /// records, so full segments seal and can spill (0 keeps one resident
  /// segment). Output stays byte-identical at every value.
  std::uint32_t segment_cap = 0;
  /// --spill-dir=PATH: with --segment-cap, seal-and-spill cold segments to
  /// PATH and read them back via mmap (bounded resident memory).
  std::string spill_dir;
  /// --csv[=path]: dump the table rows as CSV (default <name>.csv).
  std::optional<std::string> csv;
  /// --trace[=path]: export the structured sim-time trace as JSONL (or
  /// CSV by extension; default <name>.trace.jsonl).
  std::optional<std::string> trace;
  /// --metrics[=path]: export the metric registry (default
  /// <name>.metrics.jsonl).
  std::optional<std::string> metrics;

  /// --audit-every converted to sim time (0 when disabled); wire into
  /// ScenarioConfig::with_audit_every.
  [[nodiscard]] Duration audit_period() const {
    return static_cast<Duration>(audit_every * static_cast<double>(kDay));
  }

  /// Parses argv. `name` seeds the default output filenames and the usage
  /// text. Unknown flags, positional arguments and malformed values are
  /// fatal (exit 2 with usage).
  static Options parse(int argc, char** argv, const std::string& name) {
    Options out;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::size_t eq = arg.find('=');
      const std::string_view value =
          eq == std::string::npos ? std::string_view()
                                  : std::string_view(arg).substr(eq + 1);
      if (arg == "--help" || arg == "-h") {
        print_usage(std::cout, name);
        std::exit(0);
      } else if (arg.rfind("--jobs=", 0) == 0) {
        out.jobs = require(whole_number<std::size_t>(value), arg, name);
      } else if (arg == "--engine-stats") {
        out.engine_stats = true;
      } else if (arg == "--stats") {
        out.stats = true;
      } else if (arg == "--check-invariants") {
        out.check_invariants = true;
      } else if (arg == "--exact-replan") {
        out.exact_replan = true;
      } else if (arg.rfind("--audit-every=", 0) == 0) {
        out.audit_every = require(non_negative_number(value), arg, name);
      } else if (arg.rfind("--mc-random=", 0) == 0) {
        out.mc_random = require(whole_number<std::size_t>(value), arg, name);
      } else if (arg.rfind("--mc-seed=", 0) == 0) {
        out.mc_seed = require(whole_number<std::uint64_t>(value), arg, name);
      } else if (arg == "--streaming") {
        out.streaming = true;
      } else if (arg.rfind("--segment-cap=", 0) == 0) {
        out.segment_cap =
            require(whole_number<std::uint32_t>(value), arg, name);
      } else if (arg.rfind("--spill-dir=", 0) == 0) {
        out.spill_dir = arg.substr(12);
      } else if (arg == "--csv") {
        out.csv = name + ".csv";
      } else if (arg.rfind("--csv=", 0) == 0) {
        out.csv = arg.substr(6);
      } else if (arg == "--trace") {
        out.trace = name + ".trace.jsonl";
      } else if (arg.rfind("--trace=", 0) == 0) {
        out.trace = arg.substr(8);
      } else if (arg == "--metrics") {
        out.metrics = name + ".metrics.jsonl";
      } else if (arg.rfind("--metrics=", 0) == 0) {
        out.metrics = arg.substr(10);
      } else {
        reject(name, "unknown option '" + arg + "'");
      }
    }
    return out;
  }

  static void print_usage(std::ostream& os, const std::string& name) {
    os << "usage: " << name << " [options]\n"
       << "  --jobs=N            worker threads (0 = hardware, 1 = inline)\n"
       << "  --csv[=PATH]        dump table rows as CSV (default " << name
       << ".csv)\n"
       << "  --trace[=PATH]      export the sim-time trace (JSONL, or CSV "
          "by extension)\n"
       << "  --metrics[=PATH]    export the metric registry (JSONL or CSV)\n"
       << "  --engine-stats      append event-core counters\n"
       << "  --stats             append run-resource summary\n"
       << "  --check-invariants  audit the run; non-zero exit on violation\n"
       << "  --exact-replan      disable the incremental plan cache "
          "(reference planner)\n"
       << "  --audit-every=DAYS  mid-run invariant audit every DAYS of sim "
          "time (0 = off)\n"
       << "  --mc-random=N       N random tie-break replays instead of the "
          "experiment\n"
       << "  --mc-seed=S         seed for the --mc-random tie-break "
          "streams\n"
       << "  --streaming         classify-on-advance streaming series "
          "(byte-identical to batch)\n"
       << "  --segment-cap=N     with --streaming: N records per columnar "
          "segment (0 = one resident segment)\n"
       << "  --spill-dir=PATH    with --segment-cap: spill sealed segments "
          "to PATH (mmap reads)\n"
       << "  --help              show this help\n";
  }

 private:
  /// A non-negative whole number that fits in T: digits only, no sign,
  /// blank or trailing text.
  template <class T>
  [[nodiscard]] static std::optional<T> whole_number(std::string_view text) {
    std::uint64_t v = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc{} || ptr != end ||
        v > std::numeric_limits<T>::max()) {
      return std::nullopt;
    }
    return static_cast<T>(v);
  }

  /// A finite number >= 0, written without a sign.
  [[nodiscard]] static std::optional<double> non_negative_number(
      std::string_view text) {
    double v = 0.0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc{} || ptr != end || text.front() == '-' ||
        !std::isfinite(v)) {
      return std::nullopt;
    }
    return v;
  }

  [[noreturn]] static void reject(const std::string& name,
                                  const std::string& message) {
    std::cerr << name << ": " << message << "\n";
    print_usage(std::cerr, name);
    std::exit(2);
  }

  template <class T>
  static T require(std::optional<T> value, const std::string& arg,
                   const std::string& name) {
    if (!value) reject(name, "invalid value in '" + arg + "'");
    return *value;
  }
};

/// Owns the per-process observability state an experiment needs: the trace
/// ring (allocated only when --trace was given, so tracing-off runs carry
/// a null buffer everywhere), the metric registry, and a wall-clock phase
/// profiler. Call finish() after the last table is printed.
class Observability {
 public:
  explicit Observability(const Options& options) : options_(options) {
    if (options_.trace) trace_ = std::make_unique<obs::TraceBuffer>();
  }

  /// Null unless --trace was given: wire this into ScenarioConfig::trace
  /// (single-scenario binaries only — never share one buffer between
  /// replications fanned out across threads).
  [[nodiscard]] obs::TraceBuffer* trace() { return trace_.get(); }
  [[nodiscard]] obs::MetricsRegistry& registry() { return registry_; }
  [[nodiscard]] obs::PhaseProfiler& profiler() { return profiler_; }
  [[nodiscard]] bool metrics_enabled() const {
    return options_.metrics.has_value();
  }

  /// Fans `n` replications out over `pool` (exactly run_seeds), charging
  /// the wave's wall time to the profiler and bracketing it with a
  /// kReplicate span emitted from this (coordinating) thread — the trace
  /// stays single-writer and byte-identical at any --jobs level.
  template <class Fn>
  auto replicate(Replicator& pool, std::size_t n, Fn fn)
      -> std::vector<std::invoke_result_t<Fn, std::size_t>> {
    obs::TraceSpan span(trace_.get(), 0, obs::TraceCategory::kReplication,
                        obs::TracePoint::kReplicate, wave_++);
    span.set_payload(static_cast<std::int64_t>(n));
    const auto scope = profiler_.measure("replicate");
    return pool.run(n, std::move(fn));
  }

  /// Writes the requested export files. Stdout is never touched, so the
  /// primary outputs are byte-identical with or without observability.
  void finish() {
    if (options_.metrics) {
      profiler_.publish(registry_);
      if (trace_) {
        registry_.counter("trace.events_emitted").set(trace_->emitted());
        registry_.counter("trace.events_dropped").set(trace_->dropped());
      }
      obs::write_metrics_file(registry_, *options_.metrics);
    }
    if (options_.trace) obs::write_trace_file(*trace_, *options_.trace);
  }

 private:
  Options options_;
  std::unique_ptr<obs::TraceBuffer> trace_;
  obs::MetricsRegistry registry_;
  obs::PhaseProfiler profiler_;
  std::int64_t wave_ = 0;
};

/// Fans `n` independent replications out over the pool and returns their
/// results in seed-index order. The thin experiment-facing wrapper around
/// Replicator::run — replications must be self-contained (own Engine/Rng,
/// no printing); aggregate and print only after this returns.
template <class Fn>
auto run_seeds(Replicator& pool, std::size_t n, Fn fn)
    -> std::vector<std::invoke_result_t<Fn, std::size_t>> {
  return pool.run(n, std::move(fn));
}

/// Prints the engine's event-core counters (see Engine::Stats).
inline void print_engine_stats(const Engine& engine) {
  const Engine::Stats& s = engine.stats();
  std::cout << "\n[engine] scheduled=" << s.scheduled
            << " fired=" << s.fired << " cancelled=" << s.cancelled
            << " tombstones=" << s.tombstones
            << " tombstone_ratio=" << s.tombstone_ratio()
            << " heap_high_water="
            << static_cast<std::uint64_t>(s.heap_high_water.value()) << "\n";
}

/// Prints an invariant report and exits non-zero on violation. Call last:
/// an experiment that produced tables from a corrupted simulation must not
/// look successful to CI.
inline void print_invariants(const InvariantReport& report) {
  std::cout << "\n[invariants] " << report.to_string() << "\n";
  if (!report.ok()) std::exit(1);
}

/// Wall-clock scope for print_run_stats: construct before the simulation,
/// print after the output is flushed.
class RunStats {
 public:
  RunStats() : start_(std::chrono::steady_clock::now()) {}

  /// Prints events/sec (0 elapsed guards to 0), job count, peak RSS and the
  /// operator-new counters ("n/a" under sanitizers; see util/memstats.hpp).
  void print(std::uint64_t events, std::size_t jobs) const {
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    std::cout << "\n[stats] events=" << events << " events/sec="
              << static_cast<std::uint64_t>(
                     seconds > 0.0 ? static_cast<double>(events) / seconds
                                   : 0.0)
              << " jobs=" << jobs << " peak_rss_mb="
              << (peak_rss_bytes() / (1024.0 * 1024.0));
    if (allocation_counting_enabled()) {
      const AllocStats a = allocation_stats();
      std::cout << " allocs=" << a.allocations
                << " alloc_mb=" << (static_cast<double>(a.bytes) /
                                    (1024.0 * 1024.0));
    } else {
      std::cout << " allocs=n/a";
    }
    std::cout << "\n";
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Prints the standard experiment banner.
inline void banner(const std::string& id, const std::string& title) {
  std::cout << "=== " << id << ": " << title << " ===\n";
}

/// Writes rows to CSV when a path was requested.
class OptionalCsv {
 public:
  OptionalCsv(const std::optional<std::string>& path,
              const std::vector<std::string>& header) {
    if (path) {
      writer_ = std::make_unique<CsvWriter>(*path, header);
      std::cout << "(writing " << *path << ")\n";
    }
  }
  void row(const std::vector<std::string>& cells) {
    if (writer_) writer_->write_row(cells);
  }

 private:
  std::unique_ptr<CsvWriter> writer_;
};

}  // namespace tg::exp
