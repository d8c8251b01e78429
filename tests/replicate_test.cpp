// Error-path and determinism coverage for the replication driver: the
// contract is that run(n, fn) returns what the sequential loop would —
// results in index order, the first error (by index, not by arrival)
// rethrown — and that every task runs before the throw, at every jobs
// level, so no worker is left behind.
#include "parallel/replicate.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace tg {
namespace {

TEST(Replicator, ResultsAreInIndexOrderAtEveryJobsLevel) {
  const auto square = [](std::size_t i) { return i * i; };
  Replicator inline_runner(1);
  const auto expected = inline_runner.run(32, square);
  for (const std::size_t jobs : {2u, 4u, 8u}) {
    Replicator pool(jobs);
    EXPECT_EQ(pool.jobs(), jobs);
    EXPECT_EQ(pool.run(32, square), expected) << "jobs=" << jobs;
  }
}

TEST(Replicator, FirstErrorByIndexIsRethrown) {
  // Index 5 throws too, and on a multi-worker pool may well *arrive* first;
  // the contract picks index 2.
  Replicator pool(4);
  const auto fn = [](std::size_t i) -> int {
    if (i == 2 || i == 5) {
      throw std::runtime_error("boom " + std::to_string(i));
    }
    return static_cast<int>(i);
  };
  for (int repeat = 0; repeat < 10; ++repeat) {
    try {
      pool.run(8, fn);
      FAIL() << "expected run() to throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 2");
    }
  }
}

TEST(Replicator, AllTasksSettleBeforeTheThrow) {
  // The workers are joined before the rethrow: by the time run() throws,
  // all n tasks have executed (succeeded or failed).
  Replicator pool(4);
  std::atomic<int> settled{0};
  const auto fn = [&settled](std::size_t i) -> int {
    ++settled;
    if (i % 3 == 0) throw std::runtime_error("boom " + std::to_string(i));
    return static_cast<int>(i);
  };
  EXPECT_THROW(pool.run(64, fn), std::runtime_error);
  EXPECT_EQ(settled.load(), 64);
}

TEST(Replicator, InlineRunSettlesEveryTaskBeforeTheThrow) {
  // jobs == 1 runs the same loop on the caller's thread: tasks after a
  // throwing index still run, and the first error by index is rethrown.
  Replicator inline_runner(1);
  std::atomic<int> started{0};
  const auto fn = [&started](std::size_t i) -> int {
    ++started;
    if (i == 2 || i == 5) {
      throw std::runtime_error("boom " + std::to_string(i));
    }
    return static_cast<int>(i);
  };
  try {
    inline_runner.run(8, fn);
    FAIL() << "expected run() to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 2");
  }
  EXPECT_EQ(started.load(), 8);
}

TEST(Replicator, ResultTypeNeedsNoDefaultConstructor) {
  struct Tagged {
    explicit Tagged(std::size_t v) : value(v) {}
    std::size_t value;
  };
  const auto out =
      Replicator(4).run(16, [](std::size_t i) { return Tagged(i * 3); });
  ASSERT_EQ(out.size(), 16u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].value, i * 3);
  }
}

TEST(Replicator, MoreWorkersThanTasks) {
  std::atomic<int> calls{0};
  const auto out = Replicator(8).run(3, [&calls](std::size_t i) {
    ++calls;
    return i + 10;
  });
  EXPECT_EQ(out, (std::vector<std::size_t>{10, 11, 12}));
  EXPECT_EQ(calls.load(), 3);
}

TEST(Replicator, ZeroJobsMeansAtLeastOneWorker) {
  EXPECT_GE(Replicator(0).jobs(), 1u);
}

TEST(Replicator, EveryTaskThrowingDoesNotDeadlock) {
  Replicator pool(4);
  const auto fn = [](std::size_t i) -> int {
    throw std::runtime_error("boom " + std::to_string(i));
  };
  try {
    pool.run(100, fn);
    FAIL() << "expected run() to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 0");
  }
  // The replicator is still serviceable after a fully-failed batch.
  EXPECT_EQ(pool.run(4, [](std::size_t i) { return i + 1; }),
            (std::vector<std::size_t>{1, 2, 3, 4}));
}

TEST(Replicator, ZeroTasksIsANoOp) {
  Replicator pool(4);
  int calls = 0;
  const auto out = pool.run(0, [&calls](std::size_t) { return ++calls; });
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(calls, 0);
}

}  // namespace
}  // namespace tg
