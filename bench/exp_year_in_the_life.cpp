// Experiment D2 — a "year in the life" of the data grid (after Orgerie &
// Lefèvre's Grid'5000 yearlong usage study): one simulated year with the
// data-intensive archetype and site caches enabled, measured entirely
// through the streaming path — the StreamingExtractor classifies each
// closing month through Scenario::subscribe(), so the series is complete
// the moment run() returns, with no batch pass over the record store.
// An optional --segment-cap routes the accounting stream through the
// spillable columnar segment log, bounding resident memory over the long
// horizon.
#include <array>
#include <iostream>
#include <string>
#include <vector>

#include "bench/exp_common.hpp"
#include "workload/scenario.hpp"

int main(int argc, char** argv) {
  using namespace tg;
  const exp::Options options =
      exp::Options::parse(argc, argv, "exp_year_in_the_life",
                          exp::kCsv | exp::kTrace | exp::kCheckInvariants |
                          exp::kExactReplan | exp::kSegments);
  exp::Observability obsv(options);
  exp::banner("D2", "A year in the life of the data grid (streaming)");

  // Always streaming: this experiment *is* the long-horizon streaming
  // scenario. Monthly windows give 12 rows over the year.
  ScenarioConfig::StreamingOptions streaming;
  streaming.enabled = true;
  streaming.bucket = 30 * kDay;
  streaming.series_end = 12 * 30 * kDay;
  streaming.segments.segment_records = options.segment_cap;
  streaming.segments.spill_dir = options.spill_dir;

  Scenario scenario(ScenarioConfig::defaults()
                        .with_seed(2010)
                        .with_horizon(kYear)
                        .with_gateway_adoption_ramp(0.5)
                        .with_plan_cache(!options.exact_replan)
                        .with_streaming(streaming)
                        .with_archetype(ArchetypeSpec::data_intensive())
                        .with_data_grid(DataGridConfig::enabled_defaults())
                        .with_trace(obsv.trace()));

  // The subscription surface: each closing monthly window pushes one row.
  struct MonthRow {
    std::array<int, kModalityCount> primary{};
    int gateway_end_users = 0;
  };
  std::vector<MonthRow> months;
  scenario.subscribe([&months](const StreamingWindow& w) {
    months.push_back({w.primary_users, w.gateway_end_users});
  });
  scenario.run();

  std::vector<std::string> header{"Month"};
  for (std::size_t m = 0; m < kModalityCount; ++m) {
    header.emplace_back(short_name(static_cast<Modality>(m)));
  }
  header.emplace_back("gw-endusers");
  Table table(header);
  exp::OptionalCsv csv(options.csv, header);
  for (std::size_t i = 0; i < months.size(); ++i) {
    std::vector<std::string> row{std::string("M").append(
        std::to_string(i + 1))};
    for (std::size_t m = 0; m < kModalityCount; ++m) {
      row.push_back(std::to_string(months[i].primary[m]));
    }
    row.push_back(std::to_string(months[i].gateway_end_users));
    csv.row(row);
    table.add_row(std::move(row));
  }
  std::cout << table << "\n";

  // The data-grid year in aggregate: what the caches absorbed and what the
  // WAN carried.
  const CacheStats cache = scenario.data_grid()->total_cache_stats();
  const DataGrid::Stats& grid = scenario.data_grid()->stats();
  std::cout << "Stage-ins: " << grid.stage_ins << " ("
            << Table::pct(grid.stage_ins > 0
                              ? static_cast<double>(grid.local_stage_ins) /
                                    static_cast<double>(grid.stage_ins)
                              : 0.0)
            << " fully local), WAN transfers: " << grid.transfers << "\n"
            << "Bytes read: " << Table::num(grid.bytes_read / 1e12, 2)
            << " TB (" << Table::pct(cache.byte_hit_rate())
            << " served by site caches), staged over WAN: "
            << Table::num(grid.bytes_transferred / 1e12, 2) << " TB\n"
            << "Stage-in latency: "
            << Table::num(static_cast<double>(grid.stage_in_total) /
                              static_cast<double>(kHour),
                          1)
            << " h total across the year\n";
  int status = 0;
  if (scenario.db().segmented()) {
    const SegmentLogStats seg = scenario.db().segment_stats();
    std::cout << "Segment log: " << seg.sealed << " sealed, " << seg.spilled
              << " spilled, " << seg.spill_failures << " spill failures ("
              << Table::num(seg.spilled_bytes / 1e6, 1) << " MB on disk)\n";
    if (seg.spill_failures > 0) {
      std::cerr << "exp_year_in_the_life: " << seg.spill_failures
                << " segments failed to spill to '" << options.spill_dir
                << "'\n";
      status = 1;
    }
  }
  if (obsv.metrics_enabled()) scenario.publish_metrics(obsv.registry());
  obsv.finish();
  if (options.check_invariants) {
    exp::print_invariants(scenario.audit_now(AuditPhase::kFinal));
  }
  return status;
}
