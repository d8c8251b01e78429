// Spillable columnar record log (see DESIGN.md §5.9): every query answered
// by the segment log — per-user windows on sealed and open segments, the
// end-sorted fast path and the unsorted by_end permutation, mmap-backed
// spilled segments — must match a brute-force append-order scan exactly,
// at every segment cap. Plus the UsageDatabase segmented-mode parity, the
// SWF import path that streams through it, recovery's rejection of corrupt
// spill files, and full-history consumers (audit, annual report, record
// hash, SWF export) agreeing between resident and spilling stores.
#include "accounting/segment_log.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "accounting/swf.hpp"
#include "accounting/usage_db.hpp"
#include "core/annual_report.hpp"
#include "mc/hash.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace tg {
namespace {

JobRecord job_rec(UserId::rep user, SimTime end, Duration runtime = kHour,
                  double nu = 1.0) {
  JobRecord r;
  r.job = JobId{end};
  r.user = UserId{user};
  r.project = ProjectId{0};
  r.submit_time = end - runtime;
  r.start_time = end - runtime;
  r.end_time = end;
  r.nodes = 1;
  r.cores_per_node = 8;
  r.requested_walltime = runtime;
  r.charged_nu = nu;
  return r;
}

/// Identity of a record for comparisons across storage modes (pointers
/// differ between the monolithic vectors and the segment log / mmap).
using Key = std::tuple<JobId::rep, SimTime, UserId::rep>;

Key key_of(const JobRecord& r) {
  return {r.job.value(), r.end_time, r.user.valid() ? r.user.value() : -1};
}

/// A per-test scratch directory for spill files (unique per gtest test, so
/// parallel ctest processes never collide).
std::filesystem::path spill_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  auto dir = std::filesystem::temp_directory_path() /
             (std::string("tgsim_seglog_") + info->name());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// The record stream under test: several users, end times either
/// monotone (the live Recorder's order) or shuffled (archive imports),
/// including invalid-user records that must be stored but never indexed.
std::vector<JobRecord> make_stream(bool sorted, int n = 300) {
  Rng rng(77);
  std::vector<JobRecord> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const SimTime end = sorted ? (i + 1) * kHour
                               : rng.uniform_int(1, 500) * kHour;
    JobRecord r = job_rec(static_cast<UserId::rep>(i % 9), end);
    if (i % 17 == 0) r.user = UserId{};  // attribute-less accounting line
    out.push_back(r);
  }
  return out;
}

std::vector<Key> brute_of(const std::vector<JobRecord>& all, UserId user,
                          SimTime from, SimTime to) {
  std::vector<Key> out;
  for (const JobRecord& r : all) {
    if (r.user == user && r.end_time >= from && r.end_time < to) {
      out.push_back(key_of(r));
    }
  }
  return out;
}

std::vector<Key> brute_ending(const std::vector<JobRecord>& all, SimTime from,
                              SimTime to) {
  std::vector<Key> out;
  for (const JobRecord& r : all) {
    if (r.end_time >= from && r.end_time < to) out.push_back(key_of(r));
  }
  return out;
}

void expect_log_matches_brute(const SegmentLog<JobRecord>& log,
                              const std::vector<JobRecord>& all) {
  for (UserId::rep u = 0; u < 9; ++u) {
    for (const auto& [from, to] :
         {std::pair<SimTime, SimTime>{0, 501 * kHour},
          {100 * kHour, 300 * kHour},
          {250 * kHour, 250 * kHour + 1},
          {400 * kHour, 100 * kHour}}) {
      std::vector<Key> got;
      log.for_each_of(UserId{u}, from, to,
                      [&got](const JobRecord& r) { got.push_back(key_of(r)); });
      EXPECT_EQ(got, brute_of(all, UserId{u}, from, to))
          << "user " << u << " window [" << from << ", " << to << ")";
    }
    std::vector<Key> all_time;
    log.for_each_of(UserId{u}, [&all_time](const JobRecord& r) {
      all_time.push_back(key_of(r));
    });
    EXPECT_EQ(all_time, brute_of(all, UserId{u}, 0, kMaxSimTime));
  }
  std::vector<Key> none;
  log.for_each_of(UserId{}, [&none](const JobRecord& r) {
    none.push_back(key_of(r));
  });
  EXPECT_TRUE(none.empty());  // invalid ids are stored but never indexed
  for (const auto& [from, to] : {std::pair<SimTime, SimTime>{0, 501 * kHour},
                                {120 * kHour, 310 * kHour},
                                {0, 0}}) {
    std::vector<Key> got;
    log.for_each_ending_in(from, to, [&got](const JobRecord& r) {
      got.push_back(key_of(r));
    });
    EXPECT_EQ(got, brute_ending(all, from, to));
  }
}

TEST(SegmentLog, QueriesMatchBruteForceAcrossCaps) {
  for (const bool sorted : {true, false}) {
    const std::vector<JobRecord> all = make_stream(sorted);
    for (const std::uint32_t cap : {0u, 1u, 3u, 64u}) {
      SegmentLogConfig cfg;
      cfg.segment_records = cap;
      SegmentLog<JobRecord> log(cfg, "jobs");
      for (const JobRecord& r : all) log.append(r);
      EXPECT_EQ(log.size(), all.size());
      EXPECT_EQ(log.user_limit(), 9);
      if (cap > 0) {
        EXPECT_GE(log.stats().sealed, all.size() / cap - 1);
      }
      expect_log_matches_brute(log, all);
    }
  }
}

TEST(SegmentLog, SpilledSegmentsAnswerFromMmap) {
  const auto dir = spill_dir();
  for (const bool sorted : {true, false}) {
    const std::vector<JobRecord> all = make_stream(sorted);
    SegmentLogConfig cfg;
    cfg.segment_records = 16;
    cfg.resident_segments = 1;  // almost everything sealed must spill
    cfg.spill_dir = (dir / (sorted ? "sorted" : "shuffled")).string();
    std::filesystem::create_directories(cfg.spill_dir);
    SegmentLog<JobRecord> log(cfg, "jobs");
    for (const JobRecord& r : all) log.append(r);
    EXPECT_GT(log.stats().spilled, 0u);
    EXPECT_GT(log.stats().spilled_bytes, 0u);
    EXPECT_EQ(log.stats().spill_failures, 0u);
    expect_log_matches_brute(log, all);
  }
  std::filesystem::remove_all(dir);
}

TEST(SegmentLog, SpillFailureKeepsSegmentResidentAndCorrect) {
  const std::vector<JobRecord> all = make_stream(/*sorted=*/true, 100);
  SegmentLogConfig cfg;
  cfg.segment_records = 16;
  cfg.resident_segments = 0;
  cfg.spill_dir = "/nonexistent/tgsim/spill/dir";  // every write fails
  SegmentLog<JobRecord> log(cfg, "jobs");
  for (const JobRecord& r : all) log.append(r);
  EXPECT_GT(log.stats().spill_failures, 0u);
  EXPECT_EQ(log.stats().spilled, 0u);
  expect_log_matches_brute(log, all);  // data stayed resident
}

/// Segmented UsageDatabase answers the shared query surface identically to
/// the monolithic vectors over the same append stream.
TEST(SegmentLog, DatabaseSegmentedModeParity) {
  const auto dir = spill_dir();
  for (const bool sorted : {true, false}) {
    const std::vector<JobRecord> all = make_stream(sorted);
    UsageDatabase plain;
    UsageDatabase seg;
    SegmentLogConfig cfg;
    cfg.segment_records = 32;
    cfg.resident_segments = 1;
    cfg.spill_dir = (dir / (sorted ? "s" : "u")).string();
    std::filesystem::create_directories(cfg.spill_dir);
    seg.enable_segments(cfg);
    EXPECT_TRUE(seg.segmented());
    for (const JobRecord& r : all) {
      plain.add(r);
      seg.add(r);
    }
    EXPECT_EQ(seg.job_count(), plain.job_count());
    EXPECT_EQ(seg.user_id_limit(), plain.user_id_limit());
    EXPECT_DOUBLE_EQ(seg.total_nu(), plain.total_nu());
    EXPECT_GT(seg.segment_stats().spilled, 0u);
    const auto keys = [](const std::vector<const JobRecord*>& rs) {
      std::vector<Key> out;
      for (const JobRecord* r : rs) out.push_back(key_of(*r));
      return out;
    };
    for (UserId::rep u = 0; u < plain.user_id_limit(); ++u) {
      EXPECT_EQ(keys(seg.jobs_of(UserId{u})), keys(plain.jobs_of(UserId{u})));
      const auto got = seg.records_of(UserId{u}, 50 * kHour, 400 * kHour);
      const auto want = plain.records_of(UserId{u}, 50 * kHour, 400 * kHour);
      EXPECT_EQ(keys(got.jobs), keys(want.jobs));
    }
    EXPECT_EQ(keys(seg.jobs_ending_in(60 * kHour, 120 * kHour)),
              keys(plain.jobs_ending_in(60 * kHour, 120 * kHour)));
  }
  std::filesystem::remove_all(dir);
}

TEST(SegmentLog, SegmentedModeForbidsRowAccess) {
  // A cap-0 store is one resident segment: contiguous access always works.
  UsageDatabase plain;
  plain.enable_segments(SegmentLogConfig{});
  EXPECT_FALSE(plain.segmented());
  plain.add(job_rec(0, kHour));
  EXPECT_EQ(plain.jobs().size(), 1u);
  // A capped store allows it only until the stream's first seal.
  SegmentLogConfig cfg;
  cfg.segment_records = 2;
  UsageDatabase db;
  db.enable_segments(cfg);
  EXPECT_TRUE(db.segmented());
  db.add(job_rec(0, kHour));
  db.add(job_rec(0, 2 * kHour));
  EXPECT_EQ(db.jobs().size(), 2u);
  db.add(job_rec(0, 3 * kHour));  // seals the first segment
  EXPECT_THROW((void)db.jobs(), PreconditionError);
  EXPECT_EQ(db.transfers().size(), 0u);  // that stream has sealed nothing
  // ... but the shared query surface keeps working.
  EXPECT_EQ(db.jobs_of(UserId{0}).size(), 3u);
  EXPECT_EQ(db.job_count(), 3u);
}

TEST(SegmentLog, EnableSegmentsRequiresEmptyDatabase) {
  UsageDatabase db;
  db.add(job_rec(0, kHour));
  EXPECT_THROW(db.enable_segments(SegmentLogConfig{}), PreconditionError);
}

/// SWF archives stream through the segment log line by line: the segmented
/// import must land the identical record stream (and parse diagnostics) as
/// the monolithic one.
TEST(SegmentLog, SwfImportStreamsThroughSegments) {
  UsageDatabase source;
  Rng rng(5);
  for (int i = 0; i < 120; ++i) {
    JobRecord r = job_rec(static_cast<UserId::rep>(i % 5),
                          rng.uniform_int(1, 400) * kHour);
    if (i % 4 == 0) {
      r.gateway = GatewayId{0};
      r.gateway_end_user = EndUserId{static_cast<EndUserId::rep>(i % 11)};
    }
    source.add(r);
  }
  std::ostringstream swf;
  export_swf(source, swf);

  std::istringstream plain_in(swf.str());
  UsageDatabase plain;
  const SwfParseStats plain_stats = import_swf_records(plain_in, plain);

  std::istringstream seg_in(swf.str());
  UsageDatabase seg;
  SegmentLogConfig cfg;
  cfg.segment_records = 16;
  seg.enable_segments(cfg);
  const SwfParseStats seg_stats = import_swf_records(seg_in, seg);

  EXPECT_EQ(plain_stats.parsed, 120u);
  EXPECT_EQ(seg_stats.parsed, plain_stats.parsed);
  EXPECT_EQ(seg_stats.skipped, plain_stats.skipped);
  EXPECT_EQ(seg.job_count(), plain.job_count());
  for (UserId::rep u = 0; u < plain.user_id_limit(); ++u) {
    const auto got = seg.jobs_of(UserId{u});
    const auto want = plain.jobs_of(UserId{u});
    ASSERT_EQ(got.size(), want.size()) << "user " << u;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(key_of(*got[i]), key_of(*want[i]));
      EXPECT_EQ(got[i]->gateway.valid(), want[i]->gateway.valid());
    }
  }
}

/// Restart recovery (the kill/reopen path): checkpoint seals and spills
/// everything, the process "dies" (the database is destroyed), and a fresh
/// process reopens the spill directory. Every query and aggregate must
/// match a plain in-memory reference, and the recovered log must keep
/// accepting appends.
TEST(SegmentLog, CheckpointThenRecoverAcrossRestart) {
  const auto dir = spill_dir();
  SegmentLogConfig cfg;
  cfg.segment_records = 32;
  cfg.spill_dir = dir.string();

  const auto stream = make_stream(/*sorted=*/false, 500);
  UsageDatabase reference;
  {
    // "Process 1": segmented database, full stream, checkpoint, death.
    UsageDatabase db;
    db.enable_segments(cfg);
    for (const JobRecord& r : stream) {
      db.add(r);
      reference.add(r);
    }
    TransferRecord t;
    t.transfer = TransferId{1};
    t.src = SiteId{0};
    t.dst = SiteId{1};
    t.user = UserId{2};
    t.bytes = 1e9;
    t.end_time = 40 * kHour;
    db.add(t);
    reference.add(t);
    SessionRecord sess;
    sess.user = UserId{3};
    sess.resource = ResourceId{0};
    sess.start_time = kHour;
    sess.end_time = 2 * kHour;
    db.add(sess);
    reference.add(sess);
    ASSERT_TRUE(db.checkpoint_segments());
  }

  // "Process 2": an empty database reopens the directory.
  UsageDatabase db;
  db.recover_segments(cfg);
  EXPECT_EQ(db.job_count(), reference.job_count());
  EXPECT_EQ(db.transfer_count(), reference.transfer_count());
  EXPECT_EQ(db.session_count(), reference.session_count());
  EXPECT_DOUBLE_EQ(db.total_nu(), reference.total_nu());
  EXPECT_EQ(db.user_id_limit(), reference.user_id_limit());
  for (UserId::rep u = 0; u < reference.user_id_limit(); ++u) {
    const auto got = db.jobs_of(UserId{u});
    const auto want = reference.jobs_of(UserId{u});
    ASSERT_EQ(got.size(), want.size()) << "user " << u;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(key_of(*got[i]), key_of(*want[i]));
    }
    const auto got_win = db.records_of(UserId{u}, 0, 200 * kHour);
    const auto want_win = reference.records_of(UserId{u}, 0, 200 * kHour);
    EXPECT_EQ(got_win.jobs.size(), want_win.jobs.size());
    EXPECT_EQ(got_win.transfers.size(), want_win.transfers.size());
    EXPECT_EQ(got_win.sessions.size(), want_win.sessions.size());
  }

  // Recovery is a live log, not an archive: appends keep working and the
  // indexes cover old and new records alike.
  const std::size_t before = db.jobs_of(UserId{1}).size();
  db.add(job_rec(1, 999 * kHour));
  EXPECT_EQ(db.jobs_of(UserId{1}).size(), before + 1);
}

TEST(SegmentLog, RecoverFromEmptyDirectoryYieldsEmptyLog) {
  const auto dir = spill_dir();
  SegmentLogConfig cfg;
  cfg.segment_records = 16;
  cfg.spill_dir = dir.string();
  UsageDatabase db;
  db.recover_segments(cfg);
  EXPECT_EQ(db.job_count(), 0u);
  EXPECT_DOUBLE_EQ(db.total_nu(), 0.0);
  db.add(job_rec(0, kHour));
  EXPECT_EQ(db.job_count(), 1u);
}

TEST(SegmentLog, CheckpointWithoutSpillDirReportsFailure) {
  SegmentLogConfig cfg;
  cfg.segment_records = 8;
  UsageDatabase db;
  db.enable_segments(cfg);
  db.add(job_rec(0, kHour));
  EXPECT_FALSE(db.checkpoint_segments());
}

/// Checkpoint twice: the second call must not re-spill already-spilled
/// segments (idempotence), and recovery still sees exactly one copy.
TEST(SegmentLog, CheckpointIsIdempotent) {
  const auto dir = spill_dir();
  SegmentLogConfig cfg;
  cfg.segment_records = 8;
  cfg.spill_dir = dir.string();
  UsageDatabase db;
  db.enable_segments(cfg);
  for (int i = 0; i < 20; ++i) {
    db.add(job_rec(0, (i + 1) * kHour));
  }
  ASSERT_TRUE(db.checkpoint_segments());
  const SegmentLogStats first = db.segment_stats();
  ASSERT_TRUE(db.checkpoint_segments());
  EXPECT_EQ(db.segment_stats().spilled, first.spilled);

  UsageDatabase recovered;
  recovered.recover_segments(cfg);
  EXPECT_EQ(recovered.job_count(), 20u);
}

/// Checkpoints a small end-sorted job log to `dir` and returns the path of
/// its first segment file.
std::filesystem::path checkpoint_small_log(const std::filesystem::path& dir) {
  SegmentLogConfig cfg;
  cfg.segment_records = 32;
  cfg.spill_dir = dir.string();
  SegmentLog<JobRecord> log(cfg, "jobs");
  for (const JobRecord& r : make_stream(/*sorted=*/true, 40)) log.append(r);
  EXPECT_TRUE(log.checkpoint());
  return dir / "jobs-0.tgseg";
}

/// Rewrites `path` after `patch` edits its bytes in place.
void patch_file(const std::filesystem::path& path,
                const std::function<void(std::vector<char>&,
                                         seg_detail::SegmentFileHeader&)>&
                    patch) {
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  seg_detail::SegmentFileHeader h;
  ASSERT_GE(bytes.size(), sizeof(h));
  std::memcpy(&h, bytes.data(), sizeof(h));
  patch(bytes, h);
  std::memcpy(bytes.data(), &h, sizeof(h));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Writes one 32-bit word of a section.
void put_word(std::vector<char>& bytes, std::uint64_t off, std::size_t index,
              std::uint32_t value) {
  std::memcpy(bytes.data() + off + index * sizeof(value), &value,
              sizeof(value));
}

void expect_recovery_rejects(
    const std::function<void(std::vector<char>&,
                             seg_detail::SegmentFileHeader&)>& patch) {
  const auto dir = spill_dir();
  const auto file = checkpoint_small_log(dir);
  patch_file(file, patch);
  SegmentLogConfig cfg;
  cfg.segment_records = 32;
  cfg.spill_dir = dir.string();
  SegmentLog<JobRecord> log(cfg, "jobs");
  EXPECT_THROW(log.recover_from_spill(), PreconditionError);
  std::filesystem::remove_all(dir);
}

TEST(SegmentLog, UnpatchedCheckpointRecovers) {
  const auto dir = spill_dir();
  checkpoint_small_log(dir);
  SegmentLogConfig cfg;
  cfg.segment_records = 32;
  cfg.spill_dir = dir.string();
  SegmentLog<JobRecord> log(cfg, "jobs");
  EXPECT_EQ(log.recover_from_spill(), 2u);
  EXPECT_EQ(log.size(), 40u);
  std::filesystem::remove_all(dir);
}

TEST(SegmentLog, RecoveryRejectsOffsetPastPostingRows) {
  expect_recovery_rejects([](std::vector<char>& bytes,
                             seg_detail::SegmentFileHeader& h) {
    put_word(bytes, h.off_offsets, 1, h.posting_rows + 1);
  });
}

TEST(SegmentLog, RecoveryRejectsCountLargerThanTheFile) {
  expect_recovery_rejects(
      [](std::vector<char>&, seg_detail::SegmentFileHeader& h) {
        h.count = 1u << 30;
      });
}

TEST(SegmentLog, RecoveryRejectsRowPastCount) {
  expect_recovery_rejects([](std::vector<char>& bytes,
                             seg_detail::SegmentFileHeader& h) {
    put_word(bytes, h.off_rows, 0, h.count);
  });
}

TEST(SegmentLog, RecoveryRejectsRecordsSectionPastEndOfFile) {
  expect_recovery_rejects([](std::vector<char>& bytes,
                             seg_detail::SegmentFileHeader& h) {
    h.off_records = seg_detail::align64(bytes.size()) + 64;
  });
}

/// One short faulty run, stored resident (cap 0) or in 64-record segments
/// that spill — the full-history consumers must not tell them apart.
class StorageParity : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = spill_dir();
    resident_ = run(0, {});
    spilled_ = run(64, dir_.string());
  }
  void TearDown() override {
    spilled_.reset();  // unmaps the spill files before they are removed
    std::filesystem::remove_all(dir_);
  }

  static std::unique_ptr<Scenario> run(std::uint32_t cap,
                                       const std::string& spill) {
    ScenarioConfig config;
    config.mini_platform = true;
    config.horizon = 30 * kDay;
    config.seed = 1234;
    config.faults.outage.mtbf_hours = 120.0;
    config.faults.job_failure_rate_per_hour = 0.001;
    config.streaming.enabled = true;
    config.streaming.bucket = 10 * kDay;
    config.streaming.segments.segment_records = cap;
    config.streaming.segments.spill_dir = spill;
    auto scenario = std::make_unique<Scenario>(std::move(config));
    scenario->run();
    return scenario;
  }

  static std::string swf(const Scenario& s) {
    std::ostringstream out;
    export_swf(s.db(), out);
    return out.str();
  }

  std::filesystem::path dir_;
  std::unique_ptr<Scenario> resident_;
  std::unique_ptr<Scenario> spilled_;
};

TEST_F(StorageParity, SpilledRunReallySpilled) {
  EXPECT_GT(resident_->fault_stats().outages, 0u);
  EXPECT_FALSE(resident_->db().segmented());
  EXPECT_GT(spilled_->db().segment_stats().spilled, 0u);
  EXPECT_EQ(spilled_->db().segment_stats().spill_failures, 0u);
  EXPECT_EQ(resident_->db().job_count(), spilled_->db().job_count());
}

TEST_F(StorageParity, FinalAuditPassesWithEqualChecks) {
  const InvariantReport resident = resident_->audit_now(AuditPhase::kFinal);
  const InvariantReport spilled = spilled_->audit_now(AuditPhase::kFinal);
  EXPECT_TRUE(resident.ok()) << resident.to_string();
  EXPECT_TRUE(spilled.ok()) << spilled.to_string();
  EXPECT_GT(resident.checks, 0u);
  EXPECT_EQ(resident.checks, spilled.checks);
}

TEST_F(StorageParity, AnnualReportTextIsEqual) {
  AnnualReportOptions options;
  options.to = 31 * kDay;
  const std::string resident = generate_annual_report(
      resident_->platform(), resident_->community(), resident_->db(), options);
  EXPECT_EQ(resident, generate_annual_report(spilled_->platform(),
                                             spilled_->community(),
                                             spilled_->db(), options));
}

TEST_F(StorageParity, TerminalRecordHashIsEqual) {
  EXPECT_EQ(mc::hash_terminal_records(resident_->db()),
            mc::hash_terminal_records(spilled_->db()));
}

TEST_F(StorageParity, SwfExportIsEqual) {
  const std::string resident = swf(*resident_);
  EXPECT_GT(resident.size(), 1000u);
  EXPECT_EQ(resident, swf(*spilled_));
}

}  // namespace
}  // namespace tg
