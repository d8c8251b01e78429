// Query correctness for UsageDatabase (see DESIGN.md §5.2): window
// queries against a brute-force scan on both the end-sorted fast path and
// the unsorted fallback, appends after queries, degenerate windows/users,
// moves, and the Replicator determinism contract.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "accounting/usage_db.hpp"
#include "parallel/replicate.hpp"
#include "util/rng.hpp"

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

TransferRecord transfer_rec(UserId::rep user, SimTime end) {
  TransferRecord r;
  r.user = UserId{user};
  r.project = ProjectId{0};
  r.bytes = 1e9;
  r.submit_time = end - kMinute;
  r.end_time = end;
  return r;
}

SessionRecord session_rec(UserId::rep user, SimTime end) {
  SessionRecord r;
  r.user = UserId{user};
  r.start_time = end - kMinute;
  r.end_time = end;
  return r;
}

/// Reference implementation: linear scan in append order.
std::vector<const JobRecord*> brute_jobs(const UsageDatabase& db, UserId user,
                                         SimTime from, SimTime to) {
  std::vector<const JobRecord*> out;
  for (const JobRecord& r : db.jobs()) {
    if (r.user == user && r.end_time >= from && r.end_time < to) {
      out.push_back(&r);
    }
  }
  return out;
}

/// A database whose streams arrive in end-time order (as the live Recorder
/// appends them) when `sorted`, or shuffled when not — exercising both the
/// binary-search fast path and the filtered fallback.
UsageDatabase make_db(bool sorted, int users = 7, int jobs_per_user = 40) {
  Rng rng(11);
  std::vector<JobRecord> jobs;
  std::vector<TransferRecord> transfers;
  std::vector<SessionRecord> sessions;
  for (int u = 0; u < users; ++u) {
    for (int j = 0; j < jobs_per_user; ++j) {
      const SimTime end = rng.uniform_int(1, 200) * kHour;
      jobs.push_back(job_rec(u, end));
      if (j % 3 == 0) transfers.push_back(transfer_rec(u, end + kMinute));
      if (j % 5 == 0) sessions.push_back(session_rec(u, end + 2 * kMinute));
    }
  }
  if (sorted) {
    std::stable_sort(jobs.begin(), jobs.end(),
                     [](const JobRecord& a, const JobRecord& b) {
                       return a.end_time < b.end_time;
                     });
    std::stable_sort(transfers.begin(), transfers.end(),
                     [](const TransferRecord& a, const TransferRecord& b) {
                       return a.end_time < b.end_time;
                     });
    std::stable_sort(sessions.begin(), sessions.end(),
                     [](const SessionRecord& a, const SessionRecord& b) {
                       return a.end_time < b.end_time;
                     });
  }
  UsageDatabase db;
  for (auto& r : jobs) db.add(std::move(r));
  for (auto& r : transfers) db.add(std::move(r));
  for (auto& r : sessions) db.add(std::move(r));
  return db;
}

TEST(UsageIndex, WindowQueriesMatchBruteForceSorted) {
  const UsageDatabase db = make_db(/*sorted=*/true);
  for (UserId::rep u = 0; u < db.user_id_limit(); ++u) {
    for (const auto& [from, to] : {std::pair<SimTime, SimTime>{0, 201 * kHour},
                                  {50 * kHour, 150 * kHour},
                                  {100 * kHour, 100 * kHour + 1}}) {
      const auto got = db.records_of(UserId{u}, from, to);
      EXPECT_EQ(got.jobs, brute_jobs(db, UserId{u}, from, to));
    }
  }
}

TEST(UsageIndex, WindowQueriesMatchBruteForceUnsorted) {
  const UsageDatabase db = make_db(/*sorted=*/false);
  for (UserId::rep u = 0; u < db.user_id_limit(); ++u) {
    const auto got = db.records_of(UserId{u}, 40 * kHour, 160 * kHour);
    EXPECT_EQ(got.jobs, brute_jobs(db, UserId{u}, 40 * kHour, 160 * kHour));
  }
}

TEST(UsageIndex, AppendAfterQueryInvalidatesIndexes) {
  UsageDatabase db;
  db.add(job_rec(0, kHour));
  EXPECT_EQ(db.jobs_of(UserId{0}).size(), 1u);  // builds the index
  db.add(job_rec(0, 2 * kHour));
  db.add(job_rec(1, 3 * kHour));  // widens the user id range too
  EXPECT_EQ(db.jobs_of(UserId{0}).size(), 2u);
  EXPECT_EQ(db.jobs_of(UserId{1}).size(), 1u);
  EXPECT_EQ(db.jobs_ending_in(0, 10 * kHour).size(), 3u);
  // Same for the other streams.
  db.ensure_indexes();
  db.add(transfer_rec(2, kHour));
  db.add(session_rec(2, kHour));
  const auto w = db.records_of(UserId{2}, 0, kDay);
  EXPECT_EQ(w.transfers.size(), 1u);
  EXPECT_EQ(w.sessions.size(), 1u);
}

TEST(UsageIndex, EmptyWindowsAndUnknownUsers) {
  const UsageDatabase db = make_db(/*sorted=*/true);
  EXPECT_TRUE(db.records_of(UserId{0}, 0, 0).empty());
  EXPECT_TRUE(db.records_of(UserId{0}, 500 * kHour, 600 * kHour).empty());
  EXPECT_TRUE(db.records_of(UserId{0}, 100 * kHour, 50 * kHour).empty());
  EXPECT_TRUE(db.records_of(UserId{9999}, 0, kDay).empty());
  EXPECT_TRUE(db.records_of(UserId{}, 0, kDay).empty());  // invalid id
  EXPECT_TRUE(db.jobs_ending_in(0, 0).empty());

  const UsageDatabase empty;
  EXPECT_EQ(empty.user_id_limit(), 0);
  EXPECT_TRUE(empty.jobs_of(UserId{0}).empty());
  EXPECT_TRUE(empty.jobs_ending_in(0, kDay).empty());
  EXPECT_TRUE(empty.records_of(UserId{0}, 0, kDay).empty());
}

TEST(UsageIndex, SingleUserDatabase) {
  UsageDatabase db;
  for (int j = 0; j < 10; ++j) db.add(job_rec(0, (j + 1) * kHour));
  EXPECT_EQ(db.user_id_limit(), 1);
  EXPECT_EQ(db.jobs_of(UserId{0}).size(), 10u);
  EXPECT_EQ(db.records_of(UserId{0}, 3 * kHour, 7 * kHour).jobs.size(), 4u);
}

TEST(UsageIndex, JobsInMatchesArrivalOrder) {
  const UsageDatabase db = make_db(/*sorted=*/false);
  const auto got = db.jobs_ending_in(60 * kHour, 120 * kHour);
  std::vector<const JobRecord*> expected;
  for (const JobRecord& r : db.jobs()) {
    if (r.end_time >= 60 * kHour && r.end_time < 120 * kHour) {
      expected.push_back(&r);
    }
  }
  EXPECT_EQ(got, expected);
}

TEST(UsageIndex, MoveLeavesBothDatabasesQueryable) {
  // Regression: moving a database used to leave the moved-from object with
  // built indexes pointing into the moved-away record vectors, so the next
  // query walked freed memory. Both ends of a move must answer queries
  // correctly afterwards.
  UsageDatabase a = make_db(/*sorted=*/true);
  const std::size_t jobs = a.job_count();
  ASSERT_GT(a.jobs_of(UserId{0}).size(), 0u);  // build the indexes first

  UsageDatabase b(std::move(a));
  EXPECT_EQ(b.job_count(), jobs);
  EXPECT_EQ(b.jobs_of(UserId{0}), brute_jobs(b, UserId{0}, 0, kMaxSimTime));
  EXPECT_FALSE(b.jobs_ending_in(0, 201 * kHour).empty());
  // The moved-from database is empty and must query as empty — not crash.
  EXPECT_EQ(a.job_count(), 0u);
  EXPECT_EQ(a.user_id_limit(), 0);
  EXPECT_TRUE(a.jobs_of(UserId{0}).empty());
  EXPECT_TRUE(a.jobs_ending_in(0, 201 * kHour).empty());
  EXPECT_TRUE(a.records_of(UserId{0}, 0, 201 * kHour).empty());
  // ... and is reusable: appends and queries start from scratch.
  a.add(job_rec(3, 5 * kHour));
  EXPECT_EQ(a.jobs_of(UserId{3}).size(), 1u);

  // Move assignment over a database with its own built indexes: the
  // target must serve the new contents, not stale postings.
  UsageDatabase c = make_db(/*sorted=*/false, /*users=*/3,
                            /*jobs_per_user=*/5);
  ASSERT_GT(c.jobs_of(UserId{2}).size(), 0u);
  c = std::move(b);
  EXPECT_EQ(c.job_count(), jobs);
  EXPECT_EQ(c.jobs_of(UserId{0}), brute_jobs(c, UserId{0}, 0, kMaxSimTime));
  EXPECT_EQ(c.jobs_of(UserId{6}), brute_jobs(c, UserId{6}, 0, kMaxSimTime));
  EXPECT_TRUE(b.jobs_of(UserId{0}).empty());
  b.add(job_rec(1, kHour));
  EXPECT_EQ(b.jobs_of(UserId{1}).size(), 1u);
}

TEST(UsageIndex, TotalNuTracksAppends) {
  UsageDatabase db;
  db.add(job_rec(0, kHour, kHour, 2.5));
  db.add(job_rec(1, 2 * kHour, kHour, 1.5));
  EXPECT_DOUBLE_EQ(db.total_nu(), 4.0);
}

TEST(Replicator, ParallelMatchesSequential) {
  // The determinism contract: run(n, fn) equals the plain sequential loop
  // at any worker count, independent of completion order.
  const auto fn = [](std::size_t i) {
    Rng rng(1000 + i);
    double sum = 0.0;
    for (int k = 0; k < 1000; ++k) sum += rng.uniform();
    return std::make_pair(i, sum);
  };
  Replicator inline_pool(1);
  EXPECT_EQ(inline_pool.jobs(), 1u);
  const auto sequential = inline_pool.run(64, fn);
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{4}}) {
    Replicator pool(jobs);
    EXPECT_EQ(pool.run(64, fn), sequential);  // exact, bit-for-bit
  }
}

TEST(Replicator, ZeroTasks) {
  Replicator pool(2);
  const auto out = pool.run(0, [](std::size_t i) { return i; });
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace tg
