// Deterministic replication harness, the library's one fan-out: runs
// independent simulation replications (different seeds, different sweep
// points) or analyses of independent windows on worker threads and
// aggregates results in index order.
//
// Determinism contract: `run(n, fn)` returns exactly the vector a plain
// `for (i in [0, n)) out.push_back(fn(i))` loop would produce, regardless
// of worker count or completion order — results are collected by index,
// never by arrival. A caller that (a) keeps fn(i) self-contained (own
// Engine, own Rng, no shared mutable state, no printing) and (b) emits all
// output after run() returns is byte-identical at any --jobs level.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace tg {

class Replicator {
 public:
  /// `jobs` workers, the calling thread included; 0 means one per hardware
  /// thread.
  explicit Replicator(std::size_t jobs = 0)
      : jobs_(jobs != 0 ? jobs
                        : std::max<std::size_t>(
                              1, std::thread::hardware_concurrency())) {}

  [[nodiscard]] std::size_t jobs() const { return jobs_; }

  /// Runs fn(i) for i in [0, n) and returns the results in index order.
  /// min(jobs, n) - 1 threads plus the caller take indices from one
  /// counter; with jobs == 1 the caller runs the loop alone. Every task
  /// runs before the first exception (in index order) is rethrown.
  template <class Fn>
  auto run(std::size_t n, Fn fn)
      -> std::vector<std::invoke_result_t<Fn, std::size_t>> {
    using R = std::invoke_result_t<Fn, std::size_t>;
    std::vector<std::optional<R>> results(n);
    std::vector<std::exception_ptr> errors(n);
    std::atomic<std::size_t> next{0};
    const auto work = [&] {
      for (std::size_t i = next++; i < n; i = next++) {
        try {
          results[i].emplace(fn(i));
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
    };
    {
      std::vector<std::jthread> workers;
      const std::size_t threads = std::min(jobs_, std::max<std::size_t>(n, 1));
      workers.reserve(threads - 1);
      for (std::size_t w = 1; w < threads; ++w) workers.emplace_back(work);
      work();
    }  // joins the workers
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    std::vector<R> out;
    out.reserve(n);
    for (std::optional<R>& r : results) out.push_back(std::move(*r));
    return out;
  }

 private:
  std::size_t jobs_;
};

}  // namespace tg
