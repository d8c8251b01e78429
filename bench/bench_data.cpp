// B7 — data-grid microbenchmarks: site-cache lookup/admit throughput under
// a Zipf-skewed reference stream (both eviction policies), per-job profile
// draws, and end-to-end stage-in resolution over WAN flows. The perf-smoke
// CI job uploads these numbers as BENCH_data.json.
#include <benchmark/benchmark.h>

#include "bench/bench_common.hpp"

#include <cstdint>
#include <vector>

#include "data/data_grid.hpp"
#include "data/storage_cache.hpp"
#include "des/engine.hpp"
#include "infra/platform.hpp"
#include "net/flow.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"

namespace {

using namespace tg;

/// A pre-drawn Zipf reference stream over a dataset population whose
/// working set overflows the cache — the regime where eviction policy
/// matters. Built once per process.
struct ReferenceStream {
  std::vector<DatasetId> ids;
  std::vector<double> bytes;
};

const ReferenceStream& references() {
  static const ReferenceStream s = [] {
    constexpr int kDatasets = 4096;
    constexpr std::size_t kReferences = 1 << 18;
    Rng rng(99);
    Zipf pick(kDatasets, 1.1);
    BoundedPareto size(1.4, 5e9, 2e12);
    std::vector<double> dataset_bytes(kDatasets);
    for (double& b : dataset_bytes) b = size.sample(rng);
    ReferenceStream out;
    out.ids.reserve(kReferences);
    out.bytes.reserve(kReferences);
    for (std::size_t i = 0; i < kReferences; ++i) {
      const auto rank = pick.sample(rng) - 1;
      out.ids.push_back(DatasetId{static_cast<DatasetId::rep>(rank)});
      out.bytes.push_back(dataset_bytes[rank]);
    }
    return out;
  }();
  return s;
}

/// Cache ops/sec for the full lookup -> admit-on-miss cycle. Arg 0 selects
/// the policy. The 50 TB capacity holds a few percent of the hot set.
void BM_CacheLookupAdmit(benchmark::State& state) {
  const ReferenceStream& refs = references();
  const auto policy = static_cast<CachePolicy>(state.range(0));
  double hit_rate = 0.0;
  for (auto _ : state) {
    StorageCache cache(50e12, policy);
    for (std::size_t i = 0; i < refs.ids.size(); ++i) {
      if (!cache.lookup(refs.ids[i], refs.bytes[i])) {
        cache.admit(refs.ids[i], refs.bytes[i]);
      }
    }
    hit_rate = cache.stats().hit_rate();
    benchmark::DoNotOptimize(cache.resident());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(refs.ids.size()));
  state.counters["hit_rate"] = benchmark::Counter(hit_rate);
}
BENCHMARK(BM_CacheLookupAdmit)
    ->Arg(static_cast<int>(CachePolicy::kLru))
    ->Arg(static_cast<int>(CachePolicy::kSizeAwareLru))
    ->Unit(benchmark::kMillisecond);

DataGrid make_grid(Engine& engine, const Platform& platform,
                   FlowManager& flows) {
  std::vector<DataAccessSpec> specs(1, DataAccessSpec::enabled_defaults());
  return DataGrid(engine, platform, flows, DataGridConfig::enabled_defaults(),
                  std::move(specs), Rng(7).fork("data"));
}

/// Profile draws/sec: the per-job cost the generator pays when an
/// archetype carries a data trait (Zipf picks + duplicate collapse +
/// catalog byte lookups).
void BM_DrawProfile(benchmark::State& state) {
  const Platform platform = teragrid_2010();
  Engine engine;
  FlowManager flows(engine, platform);
  DataGrid grid = make_grid(engine, platform, flows);
  Rng rng(11);
  for (auto _ : state) {
    const DataAccessProfile profile = grid.draw_profile(0, rng);
    benchmark::DoNotOptimize(profile.total_bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DrawProfile);

/// End-to-end stage-in resolutions/sec over WAN flows: draw a profile,
/// resolve it against a site cache, run the engine until the last stage-in
/// flow lands and the completion callback fires.
void BM_StageIn(benchmark::State& state) {
  const Platform platform = teragrid_2010();
  for (auto _ : state) {
    state.PauseTiming();
    Engine engine;
    FlowManager flows(engine, platform);
    DataGrid grid = make_grid(engine, platform, flows);
    Rng rng(13);
    constexpr int kStageIns = 512;
    state.ResumeTiming();
    double bytes = 0.0;
    for (int i = 0; i < kStageIns; ++i) {
      grid.stage_in(ResourceId{0}, UserId{1}, ProjectId{1},
                    grid.draw_profile(0, rng),
                    [&bytes](const StageInResult& r) {
                      bytes += r.bytes_read;
                    });
      engine.run();
    }
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          512);
}
BENCHMARK(BM_StageIn)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return tg::exp::run_benchmarks(argc, argv, "bench_data");
}
