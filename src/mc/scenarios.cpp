#include "mc/scenarios.hpp"

#include <memory>
#include <utility>

#include "accounting/usage_db.hpp"
#include "des/engine.hpp"
#include "fault/invariants.hpp"
#include "infra/platform.hpp"
#include "mc/hash.hpp"
#include "sched/pool.hpp"
#include "util/error.hpp"

namespace tg::mc {

namespace {

/// One disposable simulation: mini-platform, topology partitions, a
/// scheduler pool and a recorder, no traffic generator — scenarios submit
/// their workload by hand so every event is accounted for.
struct Sim {
  Platform platform = mini_platform();
  Engine engine;
  UsageDatabase db;
  std::unique_ptr<SchedulerPool> pool;
  std::unique_ptr<Recorder> recorder;

  explicit Sim(const SchedulerConfig& cfg = {}) {
    engine.configure_partitions(partition_count(platform));
    pool = std::make_unique<SchedulerPool>(engine, platform, cfg);
    recorder = std::make_unique<Recorder>(platform, db);
    recorder->attach(*pool);
  }

  /// Runs to quiescence under `hook` and audits. The hook stays installed
  /// if the engine throws mid-event — harmless, both die with this Sim.
  Outcome finish(ChoiceHook& hook) {
    engine.set_choice_hook(&hook);
    engine.run();
    engine.set_choice_hook(nullptr);
    Outcome out;
    const InvariantReport report =
        check_invariants(platform, db, nullptr, nullptr, pool.get());
    out.ok = report.ok();
    if (!out.ok) out.failure = report.to_string();
    out.terminal_hash = hash_terminal_records(db);
    return out;
  }
};

[[nodiscard]] JobRequest job(int nodes, Duration runtime,
                             Duration walltime = 0) {
  JobRequest r;
  r.user = UserId{1};
  r.project = ProjectId{1};
  r.nodes = nodes;
  r.actual_runtime = runtime;
  r.requested_walltime = walltime > 0 ? walltime : runtime;
  return r;
}

/// Batches of identical jobs on both sites: all submissions tie at t=0 (one
/// replan event per site), all completions tie two hours later. Within a
/// site the completions are dependent (their order permutes queue handling);
/// across sites they are independent, so sleep sets collapse the cross-site
/// shuffles and the terminal oracle checks that the survivors commute.
Outcome run_tie_storm(ChoiceHook& hook, const ScenarioTweaks& tweaks) {
  TG_REQUIRE(tweaks.batch_a >= 1 && tweaks.batch_a * 3 <= 16,
             "tie-storm: batch_a " << tweaks.batch_a
                                   << " must fit ClusterA in one wave");
  TG_REQUIRE(tweaks.batch_b >= 1 && tweaks.batch_b * 2 <= 8,
             "tie-storm: batch_b " << tweaks.batch_b
                                   << " must fit ClusterB in one wave");
  Sim sim;
  ResourceScheduler& a = sim.pool->at(ResourceId{0});
  ResourceScheduler& b = sim.pool->at(ResourceId{1});
  for (int i = 0; i < tweaks.batch_a; ++i) a.submit(job(3, 2 * kHour));
  for (int i = 0; i < tweaks.batch_b; ++i) b.submit(job(2, 2 * kHour));
  return sim.finish(hook);
}

/// An advance reservation start racing a node outage at the same tick on
/// ClusterA (16 nodes). Timeline at t=2h, in canonical order:
///   kCompletion: two 4-node fillers end (their order is its own tie),
///   kDefault:    reservation start (seq S) vs outage wall (seq S+k).
/// Reservation-first is benign: the window's 8 nodes are free, the outage
/// then preempts the 8-node background job and degrades to 8 nodes down.
/// Outage-first preempts the background job, takes 12 nodes, and leaves
/// only 4 free for the reservation — the shortfall path must break the
/// reservation cleanly (or, mutated, over-commit and violate capacity
/// conservation, which the explorer must catch).
Outcome run_outage_reservation(ChoiceHook& hook,
                               const ScenarioTweaks& tweaks) {
  SchedulerConfig cfg;
  cfg.mc_mutate_overcommit_reservation = tweaks.mutate;
  Sim sim(cfg);
  ResourceScheduler& a = sim.pool->at(ResourceId{0});

  const ReservationId resv = a.reserve(2 * kHour, 2 * kHour, 8);
  TG_CHECK(resv.valid(), "outage-reservation: reservation rejected");
  a.attach_to_reservation(resv, job(8, kHour));
  a.submit(job(8, 3 * kHour));  // background job, the outage's victim
  a.submit(job(4, 2 * kHour));  // fillers whose completions tie at 2h
  a.submit(job(4, 2 * kHour));
  for (int i = 0; i < 3; ++i) a.submit(job(4, 2 * kHour));  // backlog

  // The outage wall is scheduled after reserve(), so its seq is larger and
  // the canonical order fires the reservation start first; the explorer's
  // non-canonical branch is the dangerous one.
  auto taken = std::make_shared<int>(0);
  sim.engine.schedule_at(
      2 * kHour, [&a, taken] { *taken = a.begin_outage(12, 3 * kHour); },
      EventPriority::kDefault, EventBinding{1, EventClass::kBarrier});
  sim.engine.schedule_at(
      2 * kHour + 30 * kMinute,
      [&a, taken] {
        if (*taken > 0) a.end_outage(*taken);
      },
      EventPriority::kDefault, EventBinding{1, EventClass::kBarrier});

  return sim.finish(hook);
}

}  // namespace

const std::vector<ScenarioInfo>& list_scenarios() {
  static const std::vector<ScenarioInfo> kScenarios = {
      {"tie-storm",
       "same-tick submission and completion ties across two sites; "
       "exercises sleep-set pruning and terminal-record equivalence"},
      {"outage-reservation",
       "node outage racing a reservation start on one site; flipped order "
       "takes the shortfall path (--mutate re-arms the historical bug)"},
  };
  return kScenarios;
}

RunFn make_scenario(std::string_view name, const ScenarioTweaks& tweaks) {
  if (name == "tie-storm") {
    return [tweaks](ChoiceHook& hook) { return run_tie_storm(hook, tweaks); };
  }
  if (name == "outage-reservation") {
    return [tweaks](ChoiceHook& hook) {
      return run_outage_reservation(hook, tweaks);
    };
  }
  TG_REQUIRE(false, "unknown mc scenario '"
                        << std::string(name)
                        << "' (tgmc list prints the catalogue)");
  return {};
}

}  // namespace tg::mc
