// Experiment F1 — quarterly active users per modality over two simulated
// years, with gateway adoption ramping. Reproduces the growth curve the
// TeraGrid observed as gateways brought in new user communities faster
// than any other modality.
#include <iostream>

#include "bench/exp_common.hpp"
#include "util/histogram.hpp"
#include "workload/scenario.hpp"

int main(int argc, char** argv) {
  using namespace tg;
  const exp::Options options =
      exp::Options::parse(argc, argv, "exp_modality_timeseries");
  exp::Observability obsv(options);
  exp::banner("F1", "Quarterly active users per modality (2 years)");

  ScenarioConfig::StreamingOptions streaming;
  if (options.streaming) {
    // Classify-on-advance over the same eight whole quarters the batch
    // pass below measures; a positive --segment-cap additionally routes
    // record storage through the spillable columnar log. Byte-identical
    // output at every setting (tests/golden_streaming.cmake diffs them).
    streaming.enabled = true;
    streaming.series_end = 8 * kQuarter;
    streaming.segments.segment_records = options.segment_cap;
    streaming.segments.spill_dir = options.spill_dir;
  }
  Scenario scenario(ScenarioConfig::defaults()
                        .with_seed(42)
                        .with_horizon(2 * kYear)
                        // most portal users adopt over time
                        .with_gateway_adoption_ramp(0.8)
                        .with_plan_cache(!options.exact_replan)
                        .with_streaming(streaming)
                        .with_trace(obsv.trace()));
  // Under --streaming the series accumulates push-style through the
  // scenario's subscription surface: each closing window appends one row,
  // and the series is complete the moment run() returns — no post-hoc
  // polling of the extractor.
  ModalityTimeSeries streamed;
  if (options.streaming) {
    scenario.subscribe([&streamed](const StreamingWindow& w) {
      streamed.primary_users.push_back(w.primary_users);
      streamed.gateway_end_users.push_back(w.gateway_end_users);
    });
  }
  scenario.run();

  const RuleClassifier classifier;
  // Whole quarters only; the drain tail past 8 x 91 days is excluded. The
  // eight windows classify in parallel (index-ordered fan-in keeps the
  // series byte-identical at every --jobs level). Under --streaming the
  // subscribed series was already produced during the run, window by
  // window.
  Replicator workers(options.jobs);
  const ModalityTimeSeries series =
      options.streaming
          ? std::move(streamed)
          : quarterly_series(scenario.platform(), scenario.db(), classifier,
                             0, 8 * kQuarter, scenario.config().features,
                             workers.pool(), obsv.trace());

  std::vector<std::string> header{"Quarter"};
  for (std::size_t m = 0; m < kModalityCount; ++m) {
    header.emplace_back(short_name(static_cast<Modality>(m)));
  }
  header.emplace_back("gw-endusers");
  Table t(header);
  exp::OptionalCsv csv(options.csv, header);
  for (std::size_t q = 0; q < series.primary_users.size(); ++q) {
    std::vector<std::string> row{std::string("Q").append(
        std::to_string(q + 1))};
    for (std::size_t m = 0; m < kModalityCount; ++m) {
      row.push_back(std::to_string(series.primary_users[q][m]));
    }
    row.push_back(std::to_string(series.gateway_end_users[q]));
    csv.row(row);
    t.add_row(std::move(row));
  }
  std::cout << t << "\n";

  // Sparkline of gateway end-user growth (the figure's headline series).
  std::vector<double> growth(series.gateway_end_users.begin(),
                             series.gateway_end_users.end());
  std::cout << "Gateway end-user growth: " << sparkline(growth) << "  ("
            << growth.front() << " -> " << growth.back() << ")\n";
  if (options.engine_stats) {
    exp::print_engine_stats(scenario.engine());
  }
  if (obsv.metrics_enabled()) scenario.publish_metrics(obsv.registry());
  obsv.finish();
  if (options.check_invariants) {
    exp::print_invariants(check_invariants(
        scenario.platform(), scenario.db(), &scenario.ledger(),
        &scenario.community(), &scenario.pool()));
  }
  return 0;
}
