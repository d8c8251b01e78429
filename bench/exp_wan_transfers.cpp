// Experiment F8 — WAN substrate validation: measured max-min fair shares
// against the closed-form expectation, and transfer-time CDFs under
// background load on the TeraGrid hub-and-spoke topology.
#include <iostream>

#include "bench/exp_common.hpp"
#include "infra/platform.hpp"
#include "net/flow.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {
using namespace tg;
}

int main(int argc, char** argv) {
  const exp::Options options =
      exp::Options::parse(argc, argv, "exp_wan_transfers", exp::kCsv);
  exp::Observability obsv(options);
  exp::banner("F8", "WAN flow model validation");

  // (a) N flows sharing one 10 Gb/s path: each should get 10/N Gb/s.
  std::cout << "(a) Max-min shares on a shared 10 Gb/s path:\n";
  Table a({"Concurrent flows", "Analytic Gb/s", "Measured Gb/s", "Error"});
  exp::OptionalCsv csv(options.csv, {"part", "x", "value"});
  for (const int n : {1, 2, 4, 8}) {
    Platform p;
    const SiteId s1 = p.add_site("a");
    const SiteId s2 = p.add_site("b");
    p.add_link(s1, s2, 10.0, 10 * kMillisecond);
    Engine engine;
    // Flow machinery is coordinator-resident (every event is a partition-0
    // wall); partitioning just keeps the canonical order uniform with the
    // scheduler binaries.
    engine.configure_partitions(partition_count(p));
    FlowManager flows(engine, p, /*host_gbps=*/40.0);
    std::vector<TransferId> ids;
    for (int i = 0; i < n; ++i) {
      ids.push_back(
          flows.start_transfer(s1, s2, 1e12, UserId{i}, ProjectId{0}));
    }
    engine.run_until(kSecond);
    const double analytic = 10.0 / n;
    const double measured = flows.flow_rate_bps(ids[0]) * 8.0 / 1e9;
    a.add_row({Table::num(std::int64_t{n}), Table::num(analytic, 3),
               Table::num(measured, 3),
               Table::pct(std::abs(measured - analytic) / analytic, 3)});
    csv.row({"shares", std::to_string(n), Table::num(measured, 4)});
  }
  std::cout << a;

  // (b) Transfer-time CDF of 10 GB transfers across the TeraGrid WAN with
  //     Poisson background flows.
  std::cout << "\n(b) 10 GB transfer times on the TeraGrid WAN with "
               "background flows:\n";
  Table b({"Background flows/h", "Mean (s)", "p50 (s)", "p90 (s)",
           "p99 (s)"});
  for (const int per_hour : {0, 10, 40, 160}) {
    const Platform p = teragrid_2010();
    Engine engine;
    engine.configure_partitions(partition_count(p));
    FlowManager flows(engine, p, 10.0);
    Rng rng(5);
    const auto nsites = static_cast<std::int64_t>(p.sites().size());
    const Duration horizon = 12 * kHour;
    // Background: heavy 100 GB flows between random sites.
    const int total_bg = per_hour * 12;
    for (int i = 0; i < total_bg; ++i) {
      const SimTime at = rng.uniform_int(0, horizon);
      const auto s1 = SiteId{static_cast<SiteId::rep>(
          rng.uniform_int(1, nsites - 1))};
      auto s2 = SiteId{static_cast<SiteId::rep>(
          rng.uniform_int(1, nsites - 1))};
      if (s2 == s1) {
        s2 = SiteId{static_cast<SiteId::rep>(1 + s1.value() % (nsites - 1))};
      }
      engine.schedule_at(at, [&flows, s1, s2] {
        flows.start_transfer(s1, s2, 1e11, UserId{0}, ProjectId{0});
      });
    }
    // Probes: 10 GB transfers every 20 minutes.
    std::vector<double> durations;
    for (SimTime at = 0; at < horizon; at += 20 * kMinute) {
      const auto s1 = SiteId{static_cast<SiteId::rep>(
          1 + (at / (20 * kMinute)) % (nsites - 1))};
      const auto s2 = SiteId{static_cast<SiteId::rep>(
          1 + (s1.value() + 3) % (nsites - 1))};
      engine.schedule_at(at, [&flows, &durations, s1, s2] {
        flows.start_transfer(
            s1, s2, 1e10, UserId{1}, ProjectId{0},
            [&durations](const Flow& f) {
              durations.push_back(to_seconds(f.completed - f.submitted));
            });
      });
    }
    engine.run();
    const Summary s = summarize(durations);
    b.add_row({Table::num(std::int64_t{per_hour}), Table::num(s.mean, 1),
               Table::num(s.p50, 1), Table::num(s.p90, 1),
               Table::num(s.p99, 1)});
    csv.row({"probe_p90_s", std::to_string(per_hour), Table::num(s.p90, 2)});
  }
  std::cout << b
            << "\nBaseline: 10 GB at 10 Gb/s = 8 s; contention stretches\n"
               "the tail first (p99), as max-min fairness predicts.\n";
  obsv.finish();
  return 0;
}
