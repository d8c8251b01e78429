// B4 — whole-simulator scalability: wall time and event throughput of the
// full Scenario pipeline (platform + schedulers + middleware + accounting)
// as the user population grows. This is the "large-scale distributed
// systems" claim of the simulator quantified.
#include <benchmark/benchmark.h>

#include "bench/bench_common.hpp"
#include "util/memstats.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace tg;

// The default mix is exactly 4x the scale-1 population of this benchmark,
// so scale N maps to a uniform N/4 factor (with_scale rounds half away
// from zero, matching the old hand-multiplied counts at every Arg).
ScenarioConfig scaled_config(int scale) {
  return ScenarioConfig::defaults()
      .with_seed(42)
      .with_horizon(90 * kDay)
      .with_scale(scale / 4.0);
}

void BM_ScenarioQuarter(benchmark::State& state) {
  const int scale = static_cast<int>(state.range(0));
  std::uint64_t events = 0;
  std::size_t jobs = 0;
  const AllocStats alloc_before = allocation_stats();
  for (auto _ : state) {
    Scenario scenario(scaled_config(scale));
    scenario.run();
    events += scenario.engine().events_processed();
    jobs += scenario.db().jobs().size();
  }
  const AllocStats alloc_after = allocation_stats();
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["jobs"] = static_cast<double>(
      jobs / static_cast<std::size_t>(state.iterations()));
  // Peak RSS is a process high-water mark (monotone across benchmarks, so
  // only the largest scale's value is attributable); allocation counters
  // are per-iteration deltas and read 0 when the hooks are compiled out.
  state.counters["peak_rss_mb"] =
      static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0);
  if (allocation_counting_enabled()) {
    const auto iters = static_cast<double>(state.iterations());
    state.counters["allocs/iter"] =
        static_cast<double>(alloc_after.allocations -
                            alloc_before.allocations) / iters;
    state.counters["alloc_mb/iter"] =
        static_cast<double>(alloc_after.bytes - alloc_before.bytes) /
        (1024.0 * 1024.0) / iters;
  }
}
BENCHMARK(BM_ScenarioQuarter)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_FullYearDefault(benchmark::State& state) {
  for (auto _ : state) {
    Scenario scenario(
        ScenarioConfig::defaults().with_seed(42).with_horizon(kYear));
    scenario.run();
    benchmark::DoNotOptimize(scenario.db().jobs().size());
  }
}
BENCHMARK(BM_FullYearDefault)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return tg::exp::run_benchmarks(argc, argv, "bench_scenario_scale");
}
