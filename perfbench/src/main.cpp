// tgbench: one benchmark run of one workload, as a single-threaded process.
//
//   tgbench --workload W --seed N --seconds S --trace 0 --work DIR
//   tgbench --workload W --seed N --seconds S --trace 1 --work DIR
//           --spans FILE
//
// With --trace 0 it runs a fixed number of cold passes (set-up, run,
// analysis, queries) and prints the end-to-end metrics, each the median
// over the passes. With --trace 1 it runs one pass without spans and one
// with, and prints the per-layer metrics. Either way the last line of
// standard output is one JSON result. All timings are on the process CPU
// clock.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/metrics.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace tg;

/// Enough queries that at least ten fall beyond p99.9 in every pass.
constexpr std::size_t kQueries = 12000;
/// Set-ups per untraced pass: a set-up takes milliseconds, so one run
/// repeats it to give setup_s a steady median.
constexpr int kSetupsPerPass = 7;
constexpr int kMinPasses = 3;

/// Untraced passes per second of --seconds. The count follows from
/// --seconds and the workload alone, never from a clock, so a faster
/// program or a busier host runs the same passes. One pass takes about
/// 1/rate seconds on a busy 4-vCPU x86-64 guest, so that every run fits
/// the benchmark's time budget.
double passes_per_second(Workload w) {
  return w == Workload::kQuarterSaturated ? 1.0 / 12.0 : 1.0 / 3.0;
}

int pass_count(Workload w, double seconds) {
  return std::max(kMinPasses,
                  static_cast<int>(std::lround(seconds * passes_per_second(w))));
}

using Flags = std::map<std::string, std::string>;

Flags parse_flags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("bad argument " + key);
    }
    flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

const std::string& flag(const Flags& flags, const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end() || it->second.empty()) {
    throw std::invalid_argument("missing --" + key);
  }
  return it->second;
}

std::uint64_t parse_u64(const std::string& s) {
  std::size_t used = 0;
  const unsigned long long v = std::stoull(s, &used);
  if (used != s.size()) throw std::invalid_argument("not a number: " + s);
  return v;
}

/// Writes `metrics` as a JSON object of {"value", "unit"} pairs.
void write_metrics(std::FILE* out, const Metrics& metrics) {
  std::fputc('{', out);
  const char* sep = "";
  for (const Metrics::Entry& e : metrics.entries()) {
    std::fprintf(out, "%s\"%s\": {\"value\": %.15g, \"unit\": \"%s\"}", sep,
                 e.name.c_str(), e.value, e.unit.c_str());
    sep = ", ";
  }
  std::fputc('}', out);
}

void write_result(const Tally& tally, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": ",
              tally.failed == 0 ? "true" : "false", tally.attempted,
              tally.failed);
  write_metrics(stdout, metrics);
  std::printf("}\n");
  std::fflush(stdout);
}

/// A fresh, empty directory for one pass's spilled segments.
std::string fresh_dir(const fs::path& work, const std::string& name) {
  const fs::path dir = work / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::unique_ptr<Pass> run_pass(Workload w, const PassInputs& in, int setups,
                               std::vector<Query>& queries, Tracer& tracer) {
  auto pass = std::make_unique<Pass>();
  pass->workload = w;
  run_setup(*pass, in, setups, tracer);
  run_sim(*pass, tracer);
  run_analyze(*pass, tracer);
  if (queries.empty()) queries = make_queries(pass->db(), in.seed, kQueries);
  run_queries(*pass, queries, tracer);
  return pass;
}

std::uint64_t count_mismatches(const std::vector<Answer>& a,
                               const std::vector<Answer>& b) {
  std::uint64_t n = a.size() == b.size() ? 0 : a.size();
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (!(a[i] == b[i])) ++n;
  }
  return n;
}

/// What an earlier, already destroyed pass left for the checks.
struct EarlierPass {
  std::vector<Answer> answers;
  AnalysisDigest digest;
};

void check_repeatable(const std::vector<EarlierPass>& earlier,
                      const Pass& final_pass, Tally& tally) {
  for (std::size_t k = 0; k < earlier.size(); ++k) {
    const std::string pass = "pass " + std::to_string(k);
    tally.count(earlier[k].answers.size(),
                count_mismatches(earlier[k].answers, final_pass.answers),
                pass + " query answers differ from the final pass");
    tally.expect(earlier[k].digest == final_pass.digest,
                 pass + " analysis differs from the final pass");
  }
}

void report_failures(const Tally& tally) {
  for (const std::string& f : tally.failures) {
    std::cerr << "tgbench: check failed: " << f << "\n";
  }
}

/// Every pass's end-to-end timings on both clocks, by metric name
/// ("<phase>_<clock>_s", "query_<clock>_p50_us", ...), in pass order.
/// Set-up times hold every set-up of every pass.
using PassSeries = std::map<std::string, std::vector<double>>;

void add_pass(const PhaseTimes& t, PassSeries& series) {
  const std::pair<std::string, double Interval::*> clocks[] = {
      {"cpu", &Interval::cpu}, {"wall", &Interval::wall}};
  for (const auto& [clock, of] : clocks) {
    for (const Interval& s : t.setups) {
      series["setup_" + clock + "_s"].push_back(s.*of);
    }
    series["sim_" + clock + "_s"].push_back(t.sim.*of);
    series["analyze_" + clock + "_s"].push_back(t.analyze.*of);
    std::vector<double> q;
    q.reserve(t.query_times.size());
    for (const Interval& i : t.query_times) q.push_back(i.*of);
    std::sort(q.begin(), q.end());
    series["query_" + clock + "_p50_us"].push_back(
        1e6 * percentile_sorted(q, 0.5));
    series["query_" + clock + "_p999_us"].push_back(
        1e6 * percentile_sorted(q, 0.999));
  }
}

void write_series(std::FILE* out, const PassSeries& series) {
  std::fputc('{', out);
  const char* sep = "";
  for (const auto& [name, values] : series) {
    std::fprintf(out, "%s\"%s\": [", sep, name.c_str());
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::fprintf(out, "%s%.15g", i == 0 ? "" : ", ", values[i]);
    }
    std::fputc(']', out);
    sep = ", ";
  }
  std::fputs("}\n", out);
}

int run_untraced(Workload w, const PassInputs& base, int passes,
                 const fs::path& work) {
  Tracer off(false);
  std::vector<Query> queries;
  std::vector<EarlierPass> earlier;
  PassSeries series;
  std::unique_ptr<Pass> final_pass;
  for (int k = 0; k < passes; ++k) {
    PassInputs in = base;
    in.spill_dir = fresh_dir(work, "pass-" + std::to_string(k));
    std::unique_ptr<Pass> pass = run_pass(w, in, kSetupsPerPass, queries, off);
    add_pass(pass->times, series);
    if (k + 1 == passes) {
      final_pass = std::move(pass);
      break;
    }
    earlier.push_back({std::move(pass->answers), pass->digest});
    pass.reset();
    fs::remove_all(in.spill_dir);
  }
  const double peak_rss_mb =
      static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0);

  Tally tally;
  check_repeatable(earlier, *final_pass, tally);
  const RecordSet records = collect_records(final_pass->db());
  check_final_pass(*final_pass, records, queries, tally);
  report_failures(tally);

  // Each timing is its median over the passes; setup_s is the median of
  // every set-up.
  const auto median = [&series](const std::string& name) {
    return percentile(series.at(name), 0.5);
  };
  Metrics m;
  m.set("setup_s", median("setup_cpu_s"), "s");
  m.set("sim_cpu_s", median("sim_cpu_s"), "s");
  m.set("analyze_cpu_s", median("analyze_cpu_s"), "s");
  m.set("query_cpu_p50_us", median("query_cpu_p50_us"), "us");
  m.set("query_cpu_p999_us", median("query_cpu_p999_us"), "us");
  m.set("peak_rss_mb", peak_rss_mb, "MB");
  // Every pass's timings on both clocks, as a diagnostic line on standard
  // error.
  std::fputs("tgbench-passes: ", stderr);
  write_series(stderr, series);
  write_result(tally, m);
  return tally.failed == 0 ? 0 : 1;
}

/// Counter snapshot of the scenario.
std::map<std::string, double> counters_of(const Pass& pass) {
  std::map<std::string, double> out;
  obs::MetricsRegistry registry;
  pass.scenario->publish_metrics(registry);
  for (const auto& s : registry.snapshot()) out[s.name] = s.value;
  return out;
}

int run_traced(Workload w, const PassInputs& base, const fs::path& work,
               const std::string& spans_path) {
  // Pass A without spans gives the reference phase times; pass B repeats
  // it with spans, so B - A is the tracing overhead of each phase.
  std::vector<Query> queries;
  Tracer off(false);
  PassInputs in_a = base;
  in_a.spill_dir = fresh_dir(work, "untraced");
  std::unique_ptr<Pass> a = run_pass(w, in_a, 1, queries, off);
  const EarlierPass a_result{a->answers, a->digest};
  const PhaseTimes a_times = a->times;
  a.reset();
  fs::remove_all(in_a.spill_dir);

  Tracer tracer(true);
  PassInputs in_b = base;
  in_b.spill_dir = fresh_dir(work, "traced");
  std::unique_ptr<Pass> b = run_pass(w, in_b, 1, queries, tracer);
  const Pass& pass = *b;

  Tally tally;
  RecordSet records;
  tracer.timed("checks", [&] {
    check_repeatable({a_result}, pass, tally);
    records = collect_records(pass.db());
    check_final_pass(pass, records, queries, tally);
  });

  const std::map<std::string, double> c = counters_of(pass);
  const auto get = [&c](const std::string& name) {
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };
  const auto sum = [&c](const std::string& prefix, const std::string& suffix) {
    double total = 0.0;
    for (const auto& [name, value] : c) {
      if (name.size() >= prefix.size() + suffix.size() &&
          name.compare(0, prefix.size(), prefix) == 0 &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        total += value;
      }
    }
    return total;
  };
  const UsageDatabase& db = pass.db();
  const double jobs = static_cast<double>(db.job_count());
  const double fired = get("engine.events_fired");
  const double scheduled = get("engine.events_scheduled");
  const double cache_bytes =
      get("data.cache.bytes_hit") + get("data.cache.bytes_missed");
  const SegmentLogStats seg = db.segment_stats();

  Metrics m;
  m.set("des.events_fired", fired, "count");
  m.set("des.events_cancelled", get("engine.events_cancelled"), "count");
  m.set("des.tombstone_ratio",
        scheduled > 0 ? get("engine.events_cancelled") / scheduled : 0.0,
        "ratio");
  m.set("des.cpu_ns_per_event", fired > 0 ? 1e9 * a_times.sim.cpu / fired : 0.0,
        "ns");
  m.set("sched.jobs_finished", sum("sched.", ".jobs_finished"), "count");
  m.set("sched.replan_coalesced", sum("sched.", ".replan.coalesced"), "count");
  m.set("sched.jobs_preempted", sum("sched.", ".jobs_preempted"), "count");
  m.set("sched.jobs_killed_by_outage", sum("sched.", ".jobs_killed_by_outage"),
        "count");
  m.set("input.users", static_cast<double>(db.user_id_limit()), "count");
  m.set("input.jobs", jobs, "count");
  m.set("input.records",
        jobs + static_cast<double>(db.transfer_count() + db.session_count()),
        "count");
  m.set("input.queries", static_cast<double>(queries.size()), "count");
  m.set("gateway.jobs_submitted", sum("gateway.", ".jobs_submitted"), "count");
  m.set("gateway.jobs_dropped", sum("gateway.", ".jobs_dropped"), "count");
  m.set("net.transfers", static_cast<double>(db.transfer_count()), "count");
  m.set("data.stage_ins", get("data.stage_ins"), "count");
  m.set("data.transfers", get("data.transfers"), "count");
  m.set("data.cache.byte_hit_rate",
        cache_bytes > 0 ? get("data.cache.bytes_hit") / cache_bytes : 0.0,
        "ratio");
  m.set("data.cache.evictions", get("data.cache.evictions"), "count");
  m.set("fault.outages", get("fault.outages"), "count");
  m.set("fault.hazard_failures", get("fault.hazard_failures"), "count");
  m.set("seglog.spilled", static_cast<double>(seg.spilled), "count");
  m.set("seglog.spilled_bytes", static_cast<double>(seg.spilled_bytes),
        "bytes");
  m.set("seglog.spill_failures", static_cast<double>(seg.spill_failures),
        "count");
  m.set("core.report_cpu_s", tracer.total_cpu("core.report"), "s");
  m.set("core.series_cpu_s",
        tracer.total_cpu("core.series") + tracer.total_cpu("core.churn"), "s");
  m.set("core.predictions_cpu_s",
        tracer.total_cpu("core.predictions") + tracer.total_cpu("core.score"),
        "s");
  m.set("core.extract_user_p50_us",
        1e6 * percentile(tracer.durations_cpu("core.extract_user"), 0.5), "us");
  m.set("sim.allocs_per_job",
        jobs > 0 ? static_cast<double>(a_times.sim_allocs.allocations) / jobs
                 : 0.0,
        "count");
  m.set("sim.alloc_bytes_per_job",
        jobs > 0 ? static_cast<double>(a_times.sim_allocs.bytes) / jobs : 0.0,
        "bytes");
  m.set("analyze.allocs",
        static_cast<double>(a_times.analyze_allocs.allocations), "count");
  const std::pair<const char*, std::pair<Interval, Interval>> phases[] = {
      {"setup", {a_times.setups.back(), pass.times.setups.back()}},
      {"sim", {a_times.sim, pass.times.sim}},
      {"analyze", {a_times.analyze, pass.times.analyze}},
      {"queries", {a_times.queries, pass.times.queries}}};
  for (const auto& [phase, ab] : phases) {
    const std::string p = phase;
    m.set(p + ".wall_s", ab.first.wall, "s");
    m.set(p + ".wait_s", ab.first.wait(), "s");
    m.set(p + ".trace_overhead_s", ab.second.cpu - ab.first.cpu, "s");
  }
  run_replays(pass, records, queries, fresh_dir(work, "replay"), tracer, m,
              tally);
  report_failures(tally);

  std::ofstream out(spans_path);
  tracer.write_jsonl(out);
  if (!out) throw std::runtime_error("cannot write " + spans_path);
  tracer.write_summary(std::cerr);
  write_result(tally, m);
  return tally.failed == 0 ? 0 : 1;
}

int run(const Flags& flags) {
  const std::optional<Workload> w = parse_workload(flag(flags, "workload"));
  if (!w) {
    throw std::invalid_argument("unknown workload " + flag(flags, "workload"));
  }
  const std::string& trace = flag(flags, "trace");
  if (trace != "0" && trace != "1") {
    throw std::invalid_argument("--trace must be 0 or 1");
  }
  const double seconds = std::stod(flag(flags, "seconds"));
  PassInputs in;
  in.seed = parse_u64(flag(flags, "seed"));
  const fs::path work = flag(flags, "work");
  fs::create_directories(work);
  return trace == "1"
             ? run_traced(*w, in, work, flag(flags, "spans"))
             : run_untraced(*w, in, pass_count(*w, seconds), work);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_flags(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "tgbench: " << e.what() << "\n";
    return 2;
  }
}
