#include "accounting/swf.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace tg {

namespace {

long to_swf_status(JobState state) {
  switch (state) {
    case JobState::kCompleted: return 1;
    case JobState::kFailed:
    case JobState::kKilled:
    case JobState::kKilledByOutage: return 0;
    // SWF status 2-4 mark partial executions of checkpointed/restarted
    // jobs; an outage-requeued attempt is exactly that.
    case JobState::kRequeued: return 2;
    case JobState::kCancelled: return 5;
    default: return -1;
  }
}

}  // namespace

std::string to_swf_line(const JobRecord& r, long job_number) {
  std::ostringstream os;
  const long submit = static_cast<long>(r.submit_time / kSecond);
  const long wait = static_cast<long>(r.wait() / kSecond);
  const long run = static_cast<long>(r.runtime() / kSecond);
  const long procs = r.width_cores();
  // Data-grid stage-in rides the memory/think-time fields (megabytes /
  // seconds); jobs that staged nothing keep the SWF missing value, so
  // grid-less exports are unchanged byte for byte.
  const long read_mb =
      r.bytes_read > 0.0 ? static_cast<long>(r.bytes_read / 1e6) : -1;
  const long cached_mb =
      r.bytes_read > 0.0 ? static_cast<long>(r.bytes_from_cache / 1e6) : -1;
  const long stage_in_s =
      r.stage_in > 0 ? static_cast<long>(r.stage_in / kSecond) : -1;
  os << job_number << ' '            // 1 job number
     << submit << ' '                // 2 submit time
     << wait << ' '                  // 3 wait time
     << run << ' '                   // 4 run time
     << procs << ' '                 // 5 allocated processors
     << -1 << ' '                    // 6 average CPU time
     << read_mb << ' '               // 7 used memory (staged input MB)
     << procs << ' '                 // 8 requested processors
     << static_cast<long>(r.requested_walltime / kSecond) << ' '  // 9
     << cached_mb << ' '             // 10 requested memory (cache-served MB)
     << to_swf_status(r.final_state) << ' '  // 11 status
     << r.user.value() << ' '        // 12 user
     << r.project.value() << ' '     // 13 group (project)
        // 14 executable: the interned gateway end-user id, so the
        // attribute round-trips through export/import without strings.
     << (r.gateway_end_user.valid()
             ? static_cast<long>(r.gateway_end_user.value())
             : -1) << ' '
     << (r.gateway.valid() ? 1 : 0) << ' '  // 15 queue (gateway flag)
     << r.resource.value() << ' '    // 16 partition (resource)
     << -1 << ' '                    // 17 preceding job
     << stage_in_s;                  // 18 think time (stage-in seconds)
  return os.str();
}

void export_swf(const UsageDatabase& db, std::ostream& out,
                const std::string& platform_name) {
  out << "; SWF export from tgsim\n"
      << "; Computer: " << platform_name << "\n"
      << "; MaxJobs: " << db.job_count() << "\n"
      << "; Note: field 14 (executable) is the interned gateway end-user id\n"
      << "; Note: field 15 (queue) is 1 for science-gateway jobs\n"
      << "; Note: field 16 (partition) is the tgsim resource id\n";
  long number = 1;
  db.for_each<JobRecord>([&](const JobRecord& r) {
    out << to_swf_line(r, number++) << '\n';
  });
}

namespace {
/// Extracts the 18 numeric SWF fields from a data line. Returns false on a
/// truncated line, a non-numeric token, a numeric overflow, or trailing
/// garbage — the caller skips the line instead of keeping garbage values.
bool parse_swf_fields(const std::string& line, long (&f)[18]) {
  std::istringstream fields(line);
  for (long& value : f) {
    if (!(fields >> value)) return false;
  }
  std::string rest;
  if (fields >> rest) return false;  // more than 18 tokens
  return true;
}
}  // namespace

void for_each_swf_job(std::istream& in,
                      const std::function<void(const SwfJob&)>& sink,
                      SwfParseStats* stats) {
  std::string line;
  long line_number = 0;
  SwfParseStats local;
  while (std::getline(in, line)) {
    ++line_number;
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == ';') continue;
    long f[18];
    if (!parse_swf_fields(line, f)) {
      ++local.skipped;
      if (local.first_skipped_line == 0) local.first_skipped_line = line_number;
      continue;
    }
    ++local.parsed;
    SwfJob job;
    job.job_number = f[0];
    job.submit_seconds = f[1];
    job.wait_seconds = f[2];
    job.run_seconds = f[3];
    job.allocated_procs = f[4];
    job.requested_procs = f[7];
    job.requested_seconds = f[8];
    job.status = static_cast<int>(f[10]);
    job.user = f[11];
    job.group = f[12];
    job.executable = f[13];
    job.queue = f[14];
    job.partition = f[15];
    job.used_memory = f[6];
    job.requested_memory = f[9];
    job.think_time = f[17];
    sink(job);
  }
  if (stats != nullptr) *stats = local;
}

std::vector<SwfJob> import_swf(std::istream& in, SwfParseStats* stats) {
  std::vector<SwfJob> out;
  for_each_swf_job(in, [&out](const SwfJob& job) { out.push_back(job); },
                   stats);
  return out;
}

JobRecord to_record(const SwfJob& job, int cores_per_node) {
  TG_REQUIRE(cores_per_node >= 1, "cores_per_node must be >= 1");
  JobRecord r;
  if (job.job_number >= 0) r.job = JobId{static_cast<JobId::rep>(job.job_number)};
  if (job.user >= 0) r.user = UserId{static_cast<UserId::rep>(job.user)};
  if (job.group >= 0) {
    r.project = ProjectId{static_cast<ProjectId::rep>(job.group)};
  }
  if (job.executable >= 0) {
    r.gateway_end_user = EndUserId{static_cast<EndUserId::rep>(job.executable)};
  }
  if (job.queue == 1) r.gateway = GatewayId{0};  // flag only: gateway unknown
  if (job.partition >= 0) {
    r.resource = ResourceId{static_cast<ResourceId::rep>(job.partition)};
  }
  const long submit = std::max(0L, job.submit_seconds);
  const long wait = std::max(0L, job.wait_seconds);
  const long run = std::max(1L, job.run_seconds);
  const long requested =
      job.requested_seconds > 0 ? job.requested_seconds : run;
  r.submit_time = submit * kSecond;
  r.start_time = (submit + wait) * kSecond;
  r.end_time = r.start_time + run * kSecond;
  const long procs =
      std::max(1L, job.requested_procs > 0 ? job.requested_procs
                                           : job.allocated_procs);
  r.nodes = static_cast<int>((procs + cores_per_node - 1) / cores_per_node);
  r.cores_per_node = cores_per_node;
  r.requested_walltime = std::max(run, requested) * kSecond;
  switch (job.status) {
    case 0: r.final_state = run < requested ? JobState::kFailed
                                            : JobState::kKilled; break;
    case 2:
    case 3:
    case 4: r.final_state = JobState::kRequeued; break;
    case 5: r.final_state = JobState::kCancelled; break;
    default: r.final_state = JobState::kCompleted; break;
  }
  r.disposition = disposition_of(r.final_state);
  // Reverse the field 7/10/18 stage-in conventions (see to_swf_line).
  if (job.used_memory >= 0) r.bytes_read = static_cast<double>(job.used_memory) * 1e6;
  if (job.requested_memory >= 0) {
    r.bytes_from_cache = static_cast<double>(job.requested_memory) * 1e6;
  }
  if (job.think_time > 0) r.stage_in = job.think_time * kSecond;
  // Core-hours at NU parity: the trace carries no normalization factor.
  r.charged_su = static_cast<double>(r.width_cores()) *
                 (static_cast<double>(run) / 3600.0);
  r.charged_nu = r.charged_su;
  return r;
}

SwfParseStats import_swf_records(std::istream& in, UsageDatabase& db,
                                 int cores_per_node) {
  SwfParseStats stats;
  for_each_swf_job(
      in,
      [&db, cores_per_node](const SwfJob& job) {
        db.add(to_record(job, cores_per_node));
      },
      &stats);
  return stats;
}

JobRequest to_request(const SwfJob& job, int cores_per_node) {
  TG_REQUIRE(cores_per_node >= 1, "cores_per_node must be >= 1");
  JobRequest req;
  if (job.user >= 0) req.user = UserId{static_cast<UserId::rep>(job.user)};
  if (job.group >= 0) {
    req.project = ProjectId{static_cast<ProjectId::rep>(job.group)};
  }
  if (job.executable >= 0) {
    req.gateway_end_user =
        EndUserId{static_cast<EndUserId::rep>(job.executable)};
  }
  const long procs =
      std::max(1L, job.requested_procs > 0 ? job.requested_procs
                                           : job.allocated_procs);
  req.nodes = static_cast<int>((procs + cores_per_node - 1) / cores_per_node);
  const long run = std::max(1L, job.run_seconds);
  req.actual_runtime = run * kSecond;
  const long requested =
      job.requested_seconds > 0 ? job.requested_seconds : run;
  req.requested_walltime = std::max<Duration>(req.actual_runtime,
                                              requested * kSecond);
  if (job.status == 0) {
    if (run < requested) {
      // Application failure at the recorded runtime.
      req.fails = true;
      req.fail_after = run * kSecond;
      req.actual_runtime = req.requested_walltime;
    } else {
      // Ran to the wall: reproduce as a walltime kill.
      req.actual_runtime = req.requested_walltime + kSecond;
    }
  }
  return req;
}

}  // namespace tg
