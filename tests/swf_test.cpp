#include "accounting/swf.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "workload/replay.hpp"

namespace tg {
namespace {

JobRecord record(UserId user, int nodes, SimTime submit, Duration wait,
                 Duration run, JobState state = JobState::kCompleted) {
  JobRecord r;
  r.job = JobId{1};
  r.resource = ResourceId{2};
  r.user = user;
  r.project = ProjectId{3};
  r.submit_time = submit;
  r.start_time = submit + wait;
  r.end_time = r.start_time + run;
  r.nodes = nodes;
  r.cores_per_node = 8;
  r.requested_walltime = 2 * run;
  r.final_state = state;
  return r;
}

TEST(Swf, LineHas18Fields) {
  const std::string line = to_swf_line(record(UserId{7}, 4, kHour, kMinute,
                                              2 * kHour),
                                       1);
  std::istringstream in(line);
  int fields = 0;
  std::string tok;
  while (in >> tok) ++fields;
  EXPECT_EQ(fields, 18);
}

TEST(Swf, FieldValues) {
  const std::string line = to_swf_line(record(UserId{7}, 4, kHour, kMinute,
                                              2 * kHour),
                                       42);
  std::istringstream in(line);
  long f[18];
  for (auto& v : f) in >> v;
  EXPECT_EQ(f[0], 42);          // job number
  EXPECT_EQ(f[1], 3600);        // submit (s)
  EXPECT_EQ(f[2], 60);          // wait (s)
  EXPECT_EQ(f[3], 7200);        // run (s)
  EXPECT_EQ(f[4], 32);          // allocated procs (4 nodes x 8)
  EXPECT_EQ(f[7], 32);          // requested procs
  EXPECT_EQ(f[8], 14400);       // requested time (s)
  EXPECT_EQ(f[10], 1);          // status completed
  EXPECT_EQ(f[11], 7);          // user
  EXPECT_EQ(f[12], 3);          // group (project)
  EXPECT_EQ(f[15], 2);          // partition (resource)
}

TEST(Swf, StatusMapping) {
  const auto status_of = [](JobState s) {
    const std::string line = to_swf_line(record(UserId{1}, 1, 0, 0, kHour, s),
                                         1);
    std::istringstream in(line);
    long f[18];
    for (auto& v : f) in >> v;
    return f[10];
  };
  EXPECT_EQ(status_of(JobState::kCompleted), 1);
  EXPECT_EQ(status_of(JobState::kFailed), 0);
  EXPECT_EQ(status_of(JobState::kKilled), 0);
  EXPECT_EQ(status_of(JobState::kCancelled), 5);
}

TEST(Swf, ExportImportRoundTrip) {
  UsageDatabase db;
  db.add(record(UserId{1}, 2, 0, kMinute, kHour));
  db.add(record(UserId{2}, 8, kHour, 0, 3 * kHour, JobState::kFailed));
  std::ostringstream out;
  export_swf(db, out, "test-machine");
  std::istringstream in(out.str());
  const auto jobs = import_swf(in);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].job_number, 1);
  EXPECT_EQ(jobs[0].allocated_procs, 16);
  EXPECT_EQ(jobs[0].user, 1);
  EXPECT_EQ(jobs[1].submit_seconds, 3600);
  EXPECT_EQ(jobs[1].status, 0);
  EXPECT_EQ(jobs[1].partition, 2);
}

TEST(Swf, ImportSkipsHeadersAndBlanks) {
  std::istringstream in(
      "; header comment\n"
      "\n"
      "   ; indented comment\n"
      "1 0 10 100 8 -1 -1 8 200 -1 1 5 2 -1 0 0 -1 -1\n");
  const auto jobs = import_swf(in);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].run_seconds, 100);
  EXPECT_EQ(jobs[0].requested_seconds, 200);
}

TEST(Swf, MalformedLinesSkippedWithCount) {
  // Archive traces contain damaged lines; the importer must drop them and
  // report counts instead of aborting the whole import.
  std::istringstream in(
      "1 2 3\n"                                        // truncated
      "1 0 10 100 8 -1 -1 8 200 -1 1 5 2 -1 0 0 -1 -1\n"  // good
      "1 0 10 100 8 -1 -1 8 zzz -1 1 5 2 -1 0 0 -1 -1\n"  // non-numeric
      "2 0 10 50 4 -1 -1 4 100 -1 1 6 2 -1 0 0 -1 -1\n"   // good
      "3 0 10 50 4 -1 -1 4 100 -1 1 6 2 -1 0 0 -1 -1 99\n");  // extra field
  SwfParseStats stats;
  const auto jobs = import_swf(in, &stats);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].job_number, 1);
  EXPECT_EQ(jobs[1].job_number, 2);
  EXPECT_EQ(stats.parsed, 2u);
  EXPECT_EQ(stats.skipped, 3u);
  EXPECT_EQ(stats.first_skipped_line, 1);
}

TEST(Swf, OverflowFieldSkipped) {
  // A value that overflows `long` sets failbit mid-line; the line must be
  // dropped whole, never half-parsed.
  std::istringstream in(
      "1 999999999999999999999999999 10 100 8 -1 -1 8 200 -1 1 5 2 -1 0 0 -1 "
      "-1\n"
      "2 0 10 50 4 -1 -1 4 100 -1 1 6 2 -1 0 0 -1 -1\n");
  SwfParseStats stats;
  const auto jobs = import_swf(in, &stats);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].job_number, 2);
  EXPECT_EQ(stats.skipped, 1u);
  EXPECT_EQ(stats.first_skipped_line, 1);
}

TEST(Swf, StatsOptionalAndCleanImportCountsParsed) {
  std::istringstream in1("1 2 3\n");
  EXPECT_TRUE(import_swf(in1).empty());  // null stats: still no throw
  std::istringstream in2(
      "; header\n"
      "1 0 10 100 8 -1 -1 8 200 -1 1 5 2 -1 0 0 -1 -1\n");
  SwfParseStats stats;
  EXPECT_EQ(import_swf(in2, &stats).size(), 1u);
  EXPECT_EQ(stats.parsed, 1u);
  EXPECT_EQ(stats.skipped, 0u);
  EXPECT_EQ(stats.first_skipped_line, 0);
}

TEST(Swf, FaultDispositionRoundTrip) {
  // Outage-killed exports as SWF status 0 (failed), requeued attempts as
  // status 2 (partial execution); both survive a round trip.
  UsageDatabase db;
  db.add(record(UserId{1}, 2, 0, 0, kHour, JobState::kKilledByOutage));
  db.add(record(UserId{2}, 4, kHour, 0, kHour, JobState::kRequeued));
  std::ostringstream out;
  export_swf(db, out);
  std::istringstream in(out.str());
  SwfParseStats stats;
  const auto jobs = import_swf(in, &stats);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(stats.skipped, 0u);
  EXPECT_EQ(jobs[0].status, 0);
  EXPECT_EQ(jobs[1].status, 2);
}

TEST(Swf, ToRequestConvertsProcsToNodes) {
  SwfJob job;
  job.requested_procs = 17;
  job.run_seconds = 100;
  job.requested_seconds = 300;
  job.status = 1;
  job.user = 4;
  job.group = 9;
  const JobRequest req = to_request(job, 8);
  EXPECT_EQ(req.nodes, 3);  // ceil(17/8)
  EXPECT_EQ(req.actual_runtime, 100 * kSecond);
  EXPECT_EQ(req.requested_walltime, 300 * kSecond);
  EXPECT_EQ(req.user, UserId{4});
  EXPECT_EQ(req.project, ProjectId{9});
  EXPECT_FALSE(req.fails);
}

TEST(Swf, ToRequestFailureReproduction) {
  SwfJob job;
  job.requested_procs = 8;
  job.run_seconds = 100;
  job.requested_seconds = 300;
  job.status = 0;  // failed before its wall
  const JobRequest req = to_request(job, 8);
  EXPECT_TRUE(req.fails);
  EXPECT_EQ(req.fail_after, 100 * kSecond);
}

TEST(Swf, ToRequestKillReproduction) {
  SwfJob job;
  job.requested_procs = 8;
  job.run_seconds = 300;
  job.requested_seconds = 300;
  job.status = 0;  // ran into the wall
  const JobRequest req = to_request(job, 8);
  EXPECT_FALSE(req.fails);
  EXPECT_GT(req.actual_runtime, req.requested_walltime);
}

TEST(Replay, TraceDrivesScheduler) {
  // Simulate, export, re-import, replay on an identical machine: the
  // replayed jobs complete with the same runtimes.
  ComputeResource res;
  res.id = ResourceId{0};
  res.site = SiteId{0};
  res.name = "m";
  res.nodes = 16;
  res.cores_per_node = 8;
  res.max_walltime = 48 * kHour;

  UsageDatabase db;
  db.add(record(UserId{1}, 2, 0, 0, kHour));
  db.add(record(UserId{2}, 4, 30 * kMinute, 0, 2 * kHour));
  std::ostringstream out;
  export_swf(db, out);
  std::istringstream in(out.str());
  const auto trace = import_swf(in);

  Engine engine;
  ResourceScheduler sched(engine, res);
  std::vector<Job> finished;
  sched.add_on_end([&](const Job& j) { finished.push_back(j); });
  const ReplayStats stats = replay_trace(engine, sched, trace);
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.skipped, 0u);
  engine.run();
  ASSERT_EQ(finished.size(), 2u);
  EXPECT_EQ(finished[0].submit_time, 0);
  EXPECT_EQ(finished[0].runtime(), kHour);
  EXPECT_EQ(finished[1].submit_time, 30 * kMinute);
  EXPECT_EQ(finished[1].runtime(), 2 * kHour);
}

TEST(Replay, WideJobsClampedOrSkipped) {
  ComputeResource res;
  res.id = ResourceId{0};
  res.site = SiteId{0};
  res.name = "small";
  res.nodes = 2;
  res.cores_per_node = 8;
  res.max_walltime = kHour;

  SwfJob big;
  big.submit_seconds = 0;
  big.requested_procs = 1000;
  big.run_seconds = 60;
  big.requested_seconds = 60;
  big.status = 1;

  Engine engine;
  ResourceScheduler sched(engine, res);
  int done = 0;
  sched.add_on_end([&](const Job& j) {
    EXPECT_EQ(j.req.nodes, 2);
    ++done;
  });
  const auto stats = replay_trace(engine, sched, {big});
  EXPECT_EQ(stats.submitted, 1u);
  engine.run();
  EXPECT_EQ(done, 1);
}

}  // namespace
}  // namespace tg
