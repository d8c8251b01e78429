// Layer replays: each re-drives one layer, through its public functions,
// with the records the final pass produced. They run after the timed
// phases and after peak RSS is read, so they move no end-to-end metric.
#include <sstream>
#include <string>

#include "accounting/swf.hpp"
#include "bench.hpp"
#include "core/streaming.hpp"
#include "net/flow.hpp"
#include "sched/pool.hpp"
#include "util/stats.hpp"
#include "workload/replay.hpp"

namespace perfbench {

using namespace tg;

namespace {

/// The run's job records as SWF text, in end-time order.
std::string export_jobs(const RecordSet& records) {
  std::ostringstream out;
  long number = 1;
  for (const JobRecord* r : records.jobs) {
    out << to_swf_line(*r, number++) << '\n';
  }
  return std::move(out).str();
}

/// Appends every record into a fresh store in the pass's storage mode,
/// builds its indexes, and answers the query list's record lookups.
void replay_accounting(const Pass& pass, const RecordSet& records,
                       const std::vector<Query>& queries,
                       const std::string& spill_dir, Tracer& tracer,
                       Metrics& metrics) {
  UsageDatabase store;
  if (pass.db().segmented()) {
    SegmentLogConfig config = pass.scenario->config().streaming.segments;
    config.spill_dir = spill_dir;
    store.enable_segments(config);
  }
  const Interval append = tracer.timed("replay.accounting_append", [&] {
    for (const JobRecord* r : records.jobs) store.add(*r);
    for (const TransferRecord* r : records.transfers) store.add(*r);
    for (const SessionRecord* r : records.sessions) store.add(*r);
  });
  const Interval index = tracer.timed("replay.accounting_index",
                                      [&] { store.ensure_indexes(); });
  std::vector<double> lookup_s;
  lookup_s.reserve(queries.size());
  UserWindowRecords window;
  tracer.timed("replay.records_of", [&] {
    for (const Query& q : queries) {
      const double start = cpu_now();
      store.records_of(q.user, q.from, q.to, window);
      lookup_s.push_back(cpu_now() - start);
    }
  });
  metrics.set("accounting.append_cpu_s", append.cpu, "s");
  metrics.set("accounting.index_cpu_s", index.cpu, "s");
  metrics.set("accounting.records_of_p50_us", 1e6 * percentile(lookup_s, 0.5), "us");
}

/// Feeds the three record streams, merged by end time, to a fresh
/// StreamingExtractor with 30-day windows.
void replay_streaming(const Pass& pass, const RecordSet& records,
                      Tracer& tracer, Metrics& metrics) {
  StreamingConfig config;
  config.series_end = pass.horizon / kWindow * kWindow;
  config.bucket = kWindow;
  StreamingExtractor extractor(pass.platform(), config);
  const Interval t = tracer.timed("replay.streaming", [&] {
    std::size_t j = 0;
    std::size_t x = 0;
    std::size_t s = 0;
    const auto end_of = [](const auto& v, std::size_t i) {
      return i < v.size() ? v[i]->end_time : kMaxSimTime;
    };
    while (j < records.jobs.size() || x < records.transfers.size() ||
           s < records.sessions.size()) {
      const SimTime tj = end_of(records.jobs, j);
      const SimTime tx = end_of(records.transfers, x);
      const SimTime ts = end_of(records.sessions, s);
      if (tj <= tx && tj <= ts) {
        extractor.on_job(*records.jobs[j++]);
      } else if (tx <= ts) {
        extractor.on_transfer(*records.transfers[x++]);
      } else {
        extractor.on_session(*records.sessions[s++]);
      }
    }
    extractor.finish();
  });
  metrics.set("core.stream_replay_cpu_s", t.cpu, "s");
  metrics.set("streaming.windows_closed",
              static_cast<double>(extractor.stats().windows_closed.value()),
              "count");
}

/// Every line of the exported SWF text must parse back into a record; a
/// skipped line is a failed ingest operation.
void check_swf_parse(const SwfParseStats& stats, std::size_t jobs,
                     const char* parser, Tally& tally) {
  tally.count(stats.parsed + stats.skipped, stats.skipped,
              std::string(parser) + " skipped SWF lines, first at line " +
                  std::to_string(stats.first_skipped_line));
  tally.expect(stats.parsed == jobs,
               std::string(parser) + " parsed " + std::to_string(stats.parsed) +
                   " SWF jobs of " + std::to_string(jobs));
}

/// Replays the job stream, per resource, through bare schedulers with the
/// run's SchedulerConfig on a fresh engine.
void replay_schedulers(const Pass& pass, const RecordSet& records,
                       const std::string& swf, Tracer& tracer,
                       Metrics& metrics, Tally& tally) {
  std::vector<SwfJob> trace;
  SwfParseStats stats;
  tracer.span("accounting.import_swf", [&] {
    std::istringstream in(swf);
    trace = import_swf(in, &stats);
  });
  check_swf_parse(stats, records.jobs.size(), "import_swf", tally);
  const Platform& platform = pass.platform();
  std::vector<std::vector<SwfJob>> by_resource(platform.compute().size());
  for (SwfJob& job : trace) {
    by_resource.at(static_cast<std::size_t>(job.partition))
        .push_back(std::move(job));
  }
  Engine engine;
  SchedulerPool pool(engine, platform, pass.scenario->config().sched);
  tracer.span("sched.replay_trace", [&] {
    for (const ResourceId id : pool.resource_ids()) {
      replay_trace(engine, pool.at(id), by_resource.at(id.value()));
    }
  });
  const Interval t = tracer.timed("replay.sched", [&] {
    tracer.span("des.run", [&] { engine.run(); });
  });
  const auto events = static_cast<double>(engine.stats().fired.value());
  metrics.set("sched.replay_cpu_s", t.cpu, "s");
  metrics.set("sched.replay_events", events, "count");
  metrics.set("sched.replay_ns_per_event", events > 0 ? 1e9 * t.cpu / events
                                                      : 0.0,
              "ns");
}

/// Restarts every recorded WAN transfer at its submit time on a fresh
/// engine and FlowManager.
void replay_network(const Pass& pass, const RecordSet& records,
                    Tracer& tracer, Metrics& metrics) {
  Engine engine;
  FlowManager flows(engine, pass.platform());
  for (const TransferRecord* r : records.transfers) {
    engine.schedule_at(r->submit_time, [&flows, r] {
      flows.start_transfer(r->src, r->dst, r->bytes, r->user, r->project);
    });
  }
  const Interval t = tracer.timed("replay.net", [&] {
    tracer.span("des.run", [&] { engine.run(); });
  });
  metrics.set("net.replay_cpu_s", t.cpu, "s");
}

}  // namespace

void run_replays(const Pass& pass, const RecordSet& records,
                 const std::vector<Query>& queries,
                 const std::string& spill_dir, Tracer& tracer,
                 Metrics& metrics, Tally& tally) {
  const std::string swf =
      tracer.span("accounting.export_swf", [&] { return export_jobs(records); });
  {
    UsageDatabase parsed;
    std::istringstream in(swf);
    SwfParseStats stats;
    const Interval t = tracer.timed("replay.swf_parse", [&] {
      stats = tracer.span("accounting.import_swf_records",
                          [&] { return import_swf_records(in, parsed); });
    });
    check_swf_parse(stats, records.jobs.size(), "import_swf_records", tally);
    metrics.set("accounting.swf_parse_cpu_s", t.cpu, "s");
  }
  replay_accounting(pass, records, queries, spill_dir, tracer, metrics);
  replay_streaming(pass, records, tracer, metrics);
  replay_schedulers(pass, records, swf, tracer, metrics, tally);
  replay_network(pass, records, tracer, metrics);
}

}  // namespace perfbench
