// Deterministic replication harness, the library's one fan-out: runs
// independent simulation replications (different seeds, different sweep
// points) or analyses of independent windows over a thread pool and
// aggregates results in index order.
//
// Determinism contract: `run(n, fn)` returns exactly the vector a plain
// `for (i in [0, n)) out.push_back(fn(i))` loop would produce, regardless
// of worker count or completion order — results are collected by index,
// never by arrival. A caller that (a) keeps fn(i) self-contained (own
// Engine, own Rng, no shared mutable state, no printing) and (b) emits all
// output after run() returns is byte-identical at any --jobs level.
#pragma once

#include <cstddef>
#include <exception>
#include <future>
#include <memory>
#include <type_traits>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace tg {

class Replicator {
 public:
  /// `jobs` worker threads; 0 means hardware_concurrency. With jobs == 1 no
  /// pool is created and run() executes inline on the caller's thread.
  explicit Replicator(std::size_t jobs = 0) {
    if (jobs != 1) pool_ = std::make_unique<ThreadPool>(jobs);
  }

  /// Worker count (1 when running inline).
  [[nodiscard]] std::size_t jobs() const {
    return pool_ ? pool_->size() : 1;
  }

  /// Runs fn(i) for i in [0, n) and returns the results in index order.
  /// On the pool every task settles before the first exception (in index
  /// order) is rethrown; inline, the loop stops at the first throw.
  template <class Fn>
  auto run(std::size_t n, Fn fn)
      -> std::vector<std::invoke_result_t<Fn, std::size_t>> {
    using R = std::invoke_result_t<Fn, std::size_t>;
    std::vector<R> out;
    out.reserve(n);
    if (!pool_) {
      for (std::size_t i = 0; i < n; ++i) out.push_back(fn(i));
      return out;
    }
    std::vector<std::future<R>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      futures.push_back(pool_->submit([&fn, i] { return fn(i); }));
    }
    // Drain every future before rethrowing: bailing out on the first error
    // would destroy futures whose tasks still reference fn.
    std::exception_ptr first_error;
    for (auto& f : futures) {
      try {
        out.push_back(f.get());
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return out;
  }

 private:
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace tg
