// Shared main() for the bench_* binaries. Google-benchmark consumes its
// --benchmark_* flags first; whatever remains must parse as exp::Options
// with no optional flag accepted (only --help and --metrics: nothing here
// traces), so typos are rejected instead of ignored. `--metrics=FILE`
// exports a registry snapshot with the process peak RSS — the artifact the
// perf-smoke CI job uploads alongside the benchmark JSON.
#pragma once

#include <benchmark/benchmark.h>

#include <string>

#include "bench/exp_common.hpp"

namespace tg::exp {

inline int run_benchmarks(int argc, char** argv, const std::string& name) {
  benchmark::Initialize(&argc, argv);
  const Options options = Options::parse(argc, argv, name, 0);
  Observability obsv(options);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  obsv.finish();
  return 0;
}

}  // namespace tg::exp
