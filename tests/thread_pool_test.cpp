#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>

namespace tg {
namespace {

TEST(ThreadPool, RunsSubmittedTask) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 42; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, DefaultsToAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ExceptionsPropagateThroughFuture) {
  ThreadPool pool(1);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, DestructionDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { ++counter; });
    }
  }  // dtor joins
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace tg
