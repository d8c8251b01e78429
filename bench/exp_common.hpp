// Shared helpers for the experiment binaries (exp_*): each binary
// regenerates one table/figure of the reconstructed evaluation (see
// DESIGN.md §4) and optionally dumps CSV next to its stdout table.
//
// Every binary parses one declarative flag surface (exp::Options), limited
// to the flags it honours, and wires observability the same way
// (exp::Observability): `--trace=FILE` (where the binary traces) and
// `--metrics=FILE` export the obs subsystem's structured trace and metric
// registry without touching stdout, so the primary outputs stay
// byte-stable whether or not observability is enabled.
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include <unistd.h>

#include "fault/invariants.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "parallel/replicate.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/memstats.hpp"
#include "util/table.hpp"

namespace tg::exp {

/// The flags a binary may accept besides --help and --metrics, which every
/// binary accepts. Each binary passes Options::parse the set it honours.
enum OptionFlag : unsigned {
  kJobs = 1u << 0,
  kCsv = 1u << 1,
  kCheckInvariants = 1u << 2,
  kExactReplan = 1u << 3,
  kAuditEvery = 1u << 4,
  kMcRandom = 1u << 5,  ///< --mc-random and --mc-seed
  kStreaming = 1u << 6,
  kSegments = 1u << 7,  ///< --segment-cap and --spill-dir
  /// --trace: only binaries that wire Observability::trace() into their
  /// simulation or fan out through Observability::replicate.
  kTrace = 1u << 8,
};

/// The declarative flag surface shared by every experiment and benchmark
/// binary. parse() recognizes --help and --metrics plus the accepted
/// OptionFlags; it prints usage and exits(2) on anything else — an unknown
/// flag, one the binary would ignore, a malformed numeric value, or an
/// output path that cannot be opened for writing — and exits(0) on
/// --help, so a typo or an unsupported flag can no longer silently run the
/// default configuration, and a bad path fails before the run, not after.
struct Options {
  /// --jobs=N: worker count for the replication fan-out. 0 = one
  /// worker per hardware thread; 1 = inline, no threads. Output is
  /// byte-identical at every level (Replicator determinism contract).
  std::size_t jobs = 0;
  /// --check-invariants: audit the run and exit non-zero on violation.
  bool check_invariants = false;
  /// --exact-replan: disable the incremental plan cache and replan every
  /// scheduling decision from scratch (the reference planner). Primary
  /// outputs must be byte-identical with or without this flag — CI diffs
  /// the two (see tests/golden_exact_replan.cmake).
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
  /// --segment-cap=N: cap the record log's segments at N records, so full
  /// segments seal and can spill (0 keeps one resident segment). Output
  /// stays byte-identical at every value.
  std::uint32_t segment_cap = 0;
  /// --spill-dir=PATH: with a positive --segment-cap, seal-and-spill cold
  /// segments to PATH, an existing writable directory, and read them back
  /// via mmap (bounded resident memory).
  std::string spill_dir;
  /// --csv[=path]: dump the table rows as CSV (default <name>.csv).
  std::optional<std::string> csv;
  /// --trace[=path]: export the structured sim-time trace as JSONL
  /// (default <name>.trace.jsonl).
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
  /// text; `accepted` is the set of OptionFlags the binary honours.
  /// Unknown or unaccepted flags, positional arguments, malformed values,
  /// unwritable --csv/--trace/--metrics paths and a --spill-dir that has
  /// no positive --segment-cap or is not a writable directory are fatal
  /// (exit 2 with usage).
  static Options parse(int argc, char** argv, const std::string& name,
                       unsigned accepted) {
    Options out;
    bool spill = false;
    const auto has = [accepted](OptionFlag f) { return (accepted & f) != 0; };
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::size_t eq = arg.find('=');
      const std::string_view value =
          eq == std::string::npos ? std::string_view()
                                  : std::string_view(arg).substr(eq + 1);
      const auto require = [&](auto parsed) {
        if (!parsed) reject(name, accepted, "invalid value in '" + arg + "'");
        return *parsed;
      };
      if (arg == "--help" || arg == "-h") {
        print_usage(std::cout, name, accepted);
        std::exit(0);
      } else if (has(kTrace) && arg == "--trace") {
        out.trace = name + ".trace.jsonl";
      } else if (has(kTrace) && arg.rfind("--trace=", 0) == 0) {
        out.trace = arg.substr(8);
      } else if (arg == "--metrics") {
        out.metrics = name + ".metrics.jsonl";
      } else if (arg.rfind("--metrics=", 0) == 0) {
        out.metrics = arg.substr(10);
      } else if (has(kJobs) && arg.rfind("--jobs=", 0) == 0) {
        out.jobs = require(whole_number<std::size_t>(value));
      } else if (has(kCsv) && arg == "--csv") {
        out.csv = name + ".csv";
      } else if (has(kCsv) && arg.rfind("--csv=", 0) == 0) {
        out.csv = arg.substr(6);
      } else if (has(kCheckInvariants) && arg == "--check-invariants") {
        out.check_invariants = true;
      } else if (has(kExactReplan) && arg == "--exact-replan") {
        out.exact_replan = true;
      } else if (has(kAuditEvery) && arg.rfind("--audit-every=", 0) == 0) {
        out.audit_every = require(audit_days(value));
      } else if (has(kMcRandom) && arg.rfind("--mc-random=", 0) == 0) {
        out.mc_random = require(whole_number<std::size_t>(value));
      } else if (has(kMcRandom) && arg.rfind("--mc-seed=", 0) == 0) {
        out.mc_seed = require(whole_number<std::uint64_t>(value));
      } else if (has(kStreaming) && arg == "--streaming") {
        out.streaming = true;
      } else if (has(kSegments) && arg.rfind("--segment-cap=", 0) == 0) {
        out.segment_cap = require(whole_number<std::uint32_t>(value));
      } else if (has(kSegments) && arg.rfind("--spill-dir=", 0) == 0) {
        out.spill_dir = arg.substr(12);
        spill = true;
      } else {
        reject(name, accepted, "unknown option '" + arg + "'");
      }
    }
    // Append mode creates a missing file but leaves an existing one's
    // content as it is until the run writes it.
    const auto writable = [&](const char* flag,
                              const std::optional<std::string>& path) {
      if (path && !std::ofstream(*path, std::ios::app)) {
        reject(name, accepted,
               std::string("cannot write ") + flag + " path '" + *path + "'");
      }
    };
    writable("--csv", out.csv);
    writable("--trace", out.trace);
    writable("--metrics", out.metrics);
    // A spill that cannot happen would otherwise surface only as failure
    // counts after the run, or not at all.
    if (spill && out.segment_cap == 0) {
      reject(name, accepted, "--spill-dir needs a positive --segment-cap");
    }
    std::error_code ec;
    if (spill && (!std::filesystem::is_directory(out.spill_dir, ec) ||
                  ::access(out.spill_dir.c_str(), W_OK | X_OK) != 0)) {
      reject(name, accepted,
             "cannot write --spill-dir directory '" + out.spill_dir + "'");
    }
    return out;
  }

  /// Usage text listing --help, --metrics and the `accepted` flags.
  static void print_usage(std::ostream& os, const std::string& name,
                          unsigned accepted) {
    const auto line = [&](OptionFlag flag, const char* text) {
      if ((accepted & flag) != 0) os << text;
    };
    os << "usage: " << name << " [options]\n";
    line(kJobs,
         "  --jobs=N            worker threads (0 = hardware, 1 = inline)\n");
    if ((accepted & kCsv) != 0) {
      os << "  --csv[=PATH]        dump table rows as CSV (default " << name
         << ".csv)\n";
    }
    line(kTrace, "  --trace[=PATH]      export the sim-time trace (JSONL)\n");
    os << "  --metrics[=PATH]    export the metric registry (JSONL)\n";
    line(kCheckInvariants,
         "  --check-invariants  audit the run; non-zero exit on violation\n");
    line(kExactReplan,
         "  --exact-replan      disable the incremental plan cache "
         "(reference planner)\n");
    line(kAuditEvery,
         "  --audit-every=DAYS  mid-run invariant audit every DAYS of sim "
         "time (0 = off)\n");
    line(kMcRandom,
         "  --mc-random=N       N random tie-break replays instead of the "
         "experiment\n"
         "  --mc-seed=S         seed for the --mc-random tie-break "
         "streams\n");
    line(kStreaming,
         "  --streaming         classify-on-advance streaming series "
         "(byte-identical to batch)\n");
    line(kSegments,
         "  --segment-cap=N     N records per columnar record-log segment "
         "(0 = one resident segment)\n"
         "  --spill-dir=PATH    with --segment-cap: spill sealed segments "
         "to PATH (mmap reads)\n");
    os << "  --help              show this help\n";
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

  /// A finite number of days >= 0, written without a sign, whose period
  /// is 0 or at least 1 ms and fits Duration, so no audit asked for is
  /// dropped by audit_period()'s conversion.
  [[nodiscard]] static std::optional<double> audit_days(
      std::string_view text) {
    double v = 0.0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc{} || ptr != end || text.front() == '-' ||
        !std::isfinite(v)) {
      return std::nullopt;
    }
    const double ms = v * static_cast<double>(kDay);
    if (v > 0.0 &&
        (ms < 1.0 ||
         ms >= static_cast<double>(std::numeric_limits<Duration>::max()))) {
      return std::nullopt;
    }
    return v;
  }

  [[noreturn]] static void reject(const std::string& name,
                                  unsigned accepted,
                                  const std::string& message) {
    std::cerr << name << ": " << message << "\n";
    print_usage(std::cerr, name, accepted);
    std::exit(2);
  }
};

/// Reports an export that failed to write and exits 1: the run finished,
/// but an output file it was asked for did not land.
[[noreturn]] inline void exit_on_write_error(const PreconditionError& e) {
  std::cerr << "error: " << e.what() << "\n";
  std::exit(1);
}

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

  /// Fans `n` replications out over `pool` (Replicator::run), charging
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
  /// The metrics export carries the process peak RSS and, where the
  /// operator-new hooks are active, the allocation counters. A failed
  /// write exits 1.
  void finish() {
    try {
      if (options_.metrics) {
        profiler_.publish(registry_);
        registry_.gauge("process.peak_rss_mb")
            .set(static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0));
        if (allocation_counting_enabled()) {
          const AllocStats a = allocation_stats();
          registry_.counter("process.allocations").set(a.allocations);
          registry_.counter("process.allocated_bytes").set(a.bytes);
        }
        if (trace_) {
          registry_.counter("trace.events_emitted").set(trace_->emitted());
          registry_.counter("trace.events_dropped").set(trace_->dropped());
        }
        obs::write_metrics_file(registry_, *options_.metrics);
      }
      if (options_.trace) obs::write_trace_file(*trace_, *options_.trace);
    } catch (const PreconditionError& e) {
      exit_on_write_error(e);
    }
  }

 private:
  Options options_;
  std::unique_ptr<obs::TraceBuffer> trace_;
  obs::MetricsRegistry registry_;
  obs::PhaseProfiler profiler_;
  std::int64_t wave_ = 0;
};

/// Prints an invariant report and exits non-zero on violation. Call last:
/// an experiment that produced tables from a corrupted simulation must not
/// look successful to CI.
inline void print_invariants(const InvariantReport& report) {
  std::cout << "\n[invariants] " << report.to_string() << "\n";
  if (!report.ok()) std::exit(1);
}

/// Prints the standard experiment banner.
inline void banner(const std::string& id, const std::string& title) {
  std::cout << "=== " << id << ": " << title << " ===\n";
}

/// Writes rows to CSV when a path was requested; a failed write exits 1.
class OptionalCsv {
 public:
  OptionalCsv(const std::optional<std::string>& path,
              const std::vector<std::string>& header) {
    if (!path) return;
    try {
      writer_ = std::make_unique<CsvWriter>(*path, header);
    } catch (const PreconditionError& e) {
      exit_on_write_error(e);
    }
    std::cout << "(writing " << *path << ")\n";
  }
  void row(const std::vector<std::string>& cells) {
    if (!writer_) return;
    try {
      writer_->write_row(cells);
    } catch (const PreconditionError& e) {
      exit_on_write_error(e);
    }
  }

 private:
  std::unique_ptr<CsvWriter> writer_;
};

}  // namespace tg::exp
