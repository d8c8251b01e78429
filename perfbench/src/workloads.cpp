#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "core/scoring.hpp"
#include "core/trend.hpp"

namespace perfbench {

using namespace tg;

namespace {

constexpr SimTime kMinTime = std::numeric_limits<SimTime>::min();

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w :
       {Workload::kQuarterSaturated, Workload::kYearStreamFaulty}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kQuarterSaturated:
      return "quarter_saturated";
    case Workload::kYearStreamFaulty:
      return "year_stream_faulty";
  }
  return "?";
}

ScenarioConfig scenario_config(Workload w, std::uint64_t seed,
                               const std::string& spill_dir) {
  if (w == Workload::kQuarterSaturated) {
    // The BM_ScenarioQuarter/32 point: EASY backfill defaults, no faults,
    // monolithic store. The schedulers run saturated, so the scheduler
    // pass is most of the simulation's CPU time. Both simulation workloads
    // run the merged engine loop (shards 0), keeping the process on one
    // thread.
    return ScenarioConfig::defaults()
        .with_seed(seed)
        .with_horizon(90 * kDay)
        .with_shards(0)
        .with_scale(8);
  }
  // A "year in the life" with every optional subsystem switched on:
  // data grid, faults, 30-day streaming windows and a segment log small
  // enough to spill most of the year to disk.
  ScenarioConfig::StreamingOptions streaming;
  streaming.enabled = true;
  streaming.bucket = kWindow;
  streaming.series_end = 12 * kWindow;
  streaming.segments.segment_records = 4096;
  streaming.segments.spill_dir = spill_dir;
  ScenarioConfig config = ScenarioConfig::defaults()
                              .with_seed(seed)
                              .with_horizon(kYear)
                              .with_shards(0)
                              .with_streaming(streaming)
                              .with_archetype(ArchetypeSpec::data_intensive())
                              .with_data_grid(DataGridConfig::enabled_defaults())
                              .with_scale(2);
  config.faults.outage.mtbf_hours = 168.0;
  config.faults.job_failure_rate_per_hour = 0.0005;
  config.faults.gateway_brownouts_per_week = 0.25;
  return config;
}

void run_setup(Pass& pass, const PassInputs& in, int repeats,
               Tracer& tracer) {
  for (int i = 0; i < repeats; ++i) {
    pass.scenario.reset();
    ScenarioConfig config =
        scenario_config(pass.workload, in.seed, in.spill_dir);
    pass.horizon = config.horizon;
    pass.times.setups.push_back(tracer.timed("setup", [&] {
      tracer.span("workload.construct", [&] {
        pass.scenario = std::make_unique<Scenario>(std::move(config));
      });
    }));
  }
}

void run_sim(Pass& pass, Tracer& tracer) {
  const AllocStats before = allocation_stats();
  pass.times.sim = tracer.timed("sim", [&] {
    tracer.span("workload.run", [&] { pass.scenario->run(); });
  });
  const AllocStats after = allocation_stats();
  pass.times.sim_allocs = {after.allocations - before.allocations,
                           after.bytes - before.bytes};
}

void run_analyze(Pass& pass, Tracer& tracer) {
  pass.analysis_end = pass.scenario->engine().now() + 1;
  const RuleClassifier classifier;
  const Platform& platform = pass.platform();
  const UsageDatabase& db = pass.db();
  AnalysisDigest& digest = pass.digest;
  const AllocStats before = allocation_stats();
  pass.times.analyze = tracer.timed("analyze", [&] {
    const ModalityReport report = tracer.span(
        "core.report", [&] { return pass.scenario->report(classifier); });
    digest.report_jobs = report.total_jobs();
    digest.report_users = report.total_users();
    const std::vector<WindowModalities> series =
        tracer.span("core.series", [&] {
          return classify_series(platform, db, classifier, 0,
                                 pass.analysis_end, kWeek);
        });
    digest.series_windows = series.size();
    const ModalityChurn churn =
        tracer.span("core.churn", [&] { return churn_from(series); });
    digest.churn_transitions = churn.total_transitions();
    const Scenario::LabelledPredictions labelled = tracer.span(
        "core.predictions",
        [&] { return pass.scenario->predictions(classifier); });
    const ConfusionMatrix matrix = tracer.span("core.score", [&] {
      return score_primary(labelled.truth, labelled.predicted);
    });
    digest.scored_users = matrix.total();
    digest.accuracy = matrix.accuracy();
  });
  const AllocStats after = allocation_stats();
  pass.times.analyze_allocs = {after.allocations - before.allocations,
                               after.bytes - before.bytes};
}

void run_queries(Pass& pass, const std::vector<Query>& queries,
                 Tracer& tracer) {
  const RuleClassifier classifier;
  const FeatureExtractor extractor(pass.platform());
  const UsageDatabase& db = pass.db();
  pass.times.query_times.assign(queries.size(), Interval{});
  pass.answers.assign(queries.size(), Answer{});
  pass.times.queries = tracer.timed("queries", [&] {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const Query& q = queries[i];
      const Stamp start = now();
      const UserFeatures f = tracer.span("core.extract_user", [&] {
        return extractor.extract_user(db, q.user, q.from, q.to);
      });
      const ModalitySet set = tracer.span(
          "core.classify", [&] { return classifier.classify(f); });
      pass.times.query_times[i] = between(start, now());
      pass.answers[i] = {f.jobs, f.total_nu, set.primary};
    }
  });
}

std::vector<Query> make_queries(const UsageDatabase& db, std::uint64_t seed,
                                std::size_t n) {
  const std::vector<const JobRecord*> jobs =
      db.jobs_ending_in(kMinTime, kMaxSimTime);
  if (jobs.empty()) throw std::runtime_error("no job records to query");
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<Query> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const JobRecord& r = *jobs[rng() % jobs.size()];
    out.push_back({r.user, r.end_time + 1 - kWindow, r.end_time + 1});
  }
  return out;
}

RecordSet collect_records(const UsageDatabase& db) {
  RecordSet out;
  out.jobs = db.jobs_ending_in(kMinTime, kMaxSimTime);
  UserWindowRecords window;
  for (UserId::rep u = 0; u < db.user_id_limit(); ++u) {
    db.records_of(UserId{u}, kMinTime, kMaxSimTime, window);
    out.transfers.insert(out.transfers.end(), window.transfers.begin(),
                         window.transfers.end());
    out.sessions.insert(out.sessions.end(), window.sessions.begin(),
                        window.sessions.end());
  }
  const auto by_end = [](const auto* a, const auto* b) {
    return a->end_time < b->end_time;
  };
  std::stable_sort(out.jobs.begin(), out.jobs.end(), by_end);
  std::stable_sort(out.transfers.begin(), out.transfers.end(), by_end);
  std::stable_sort(out.sessions.begin(), out.sessions.end(), by_end);
  return out;
}

void check_final_pass(const Pass& pass, const RecordSet& records,
                      const std::vector<Query>& queries, Tally& tally) {
  // Brute force: every job record of the user, scanned linearly.
  struct Row {
    SimTime end;
    double nu;
  };
  std::vector<std::vector<Row>> by_user(pass.db().user_id_limit());
  for (const JobRecord* r : records.jobs) {
    by_user[r->user.value()].push_back({r->end_time, r->charged_nu});
  }
  std::uint64_t wrong = 0;
  std::string first;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    int jobs = 0;
    double nu = 0.0;
    for (const Row& row : by_user[q.user.value()]) {
      if (row.end >= q.from && row.end < q.to) {
        ++jobs;
        nu += row.nu;
      }
    }
    const Answer& a = pass.answers[i];
    const bool ok = a.jobs == jobs && jobs > 0 &&
                    std::abs(a.nu - nu) <= 1e-9 * std::max(1.0, std::abs(nu));
    if (!ok && wrong++ == 0) {
      std::ostringstream what;
      what << "query " << i << " (user " << q.user.value() << "): "
           << a.jobs << " jobs, " << a.nu << " NU; scan found " << jobs
           << " jobs, " << nu << " NU";
      first = what.str();
    }
  }
  tally.count(queries.size(), wrong, first);

  const Scenario& scenario = *pass.scenario;
  if (pass.workload == Workload::kQuarterSaturated) {
    const InvariantReport audit = scenario.audit_now(AuditPhase::kFinal);
    tally.expect(audit.ok(), audit.ok() ? std::string()
                                        : "final audit: " +
                                              audit.violations.front());
    return;
  }
  // year_stream_faulty: the series streamed during the run equals the
  // batch classification of the same store, and no segment failed to
  // spill.
  const RuleClassifier classifier;
  const auto& cfg = scenario.config().streaming;
  std::vector<WindowModalities> streamed = scenario.streaming()->series();
  for (WindowModalities& w : streamed) {
    w.resize(scenario.db().user_id_limit(), kInactiveUser);
  }
  const std::vector<WindowModalities> batch =
      classify_series(scenario.platform(), scenario.db(), classifier, 0,
                      cfg.series_end, cfg.bucket, scenario.config().features);
  tally.expect(streamed == batch,
               "streaming 30-day series differs from batch classify_series");
  tally.expect(scenario.db().segment_stats().spilled > 0,
               "the segment log spilled to disk");
  tally.expect(scenario.db().segment_stats().spill_failures == 0,
               "segment spill failures");
}

}  // namespace perfbench
