// Seeded, deterministic fault injection.
//
// Real grid accounting streams are shaped by operational noise — node
// crashes, machine outages, failed and requeued jobs, gateway brownouts
// (Grid'5000's operational studies put infrastructure failures among the
// dominant trace features). FaultModel reproduces that noise as ordinary
// DES events: per-resource outage processes (exponential interarrivals,
// lognormal repairs with CV 1), per-job failure hazards, and gateway
// brownouts. Everything is driven by forked Rng substreams, so a
// fault-enabled run is exactly as reproducible as a clean one, and a
// disabled FaultModel (the default config) schedules nothing and draws
// nothing — zero behaviour change.
#pragma once

#include <memory>
#include <vector>

#include "des/engine.hpp"
#include "gateway/gateway.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/pool.hpp"
#include "util/rng.hpp"

namespace tg {

/// One resource-outage process, applied independently to every machine.
struct OutageProcess {
  /// Mean time between outages per resource, in hours; 0 disables
  /// resource outages entirely.
  double mtbf_hours = 0.0;
  /// Mean of the lognormal repair time (coefficient of variation 1).
  double repair_mean_hours = 4.0;
  /// Probability an outage takes the whole machine down; otherwise it
  /// takes a uniform 5-50% of the nodes (rounded up, at least 1).
  double full_outage_prob = 0.15;
};

struct FaultConfig {
  OutageProcess outage;
  /// Per-running-job failure hazard (exponential, failures per hour of
  /// runtime); 0 disables. Injected as JobState::kFailed interrupts.
  double job_failure_rate_per_hour = 0.0;
  /// Gateway brownout initiation rate per gateway per week; 0 disables.
  /// Brownouts last an exponential 2 h on average.
  double gateway_brownouts_per_week = 0.0;

  /// False for the default config: no processes run, no randomness is
  /// drawn, simulation output is bit-identical to a build without faults.
  [[nodiscard]] bool enabled() const {
    return outage.mtbf_hours > 0.0 || job_failure_rate_per_hour > 0.0 ||
           gateway_brownouts_per_week > 0.0;
  }
};

class FaultModel {
 public:
  /// Cells are obs value types (readable as plain integers/doubles) so
  /// bind_metrics can export them by reference.
  struct Stats {
    obs::Counter outages;  ///< outages that actually took nodes
    obs::Counter repairs;
    /// Node-hours removed from service (planned repair durations).
    obs::Gauge node_hours_lost;
    obs::Counter hazard_failures;  ///< jobs killed by the hazard
    obs::Counter brownouts;
  };

  /// `gateways` may be null (or empty) when brownouts are disabled or the
  /// scenario has no gateways. New faults stop initiating at `horizon` so
  /// the post-horizon drain terminates; in-flight repairs still complete.
  FaultModel(Engine& engine, SchedulerPool& pool, FaultConfig config,
             Duration horizon, Rng rng,
             std::vector<std::unique_ptr<Gateway>>* gateways = nullptr);

  FaultModel(const FaultModel&) = delete;
  FaultModel& operator=(const FaultModel&) = delete;

  /// Schedules the initial fault events. Call once, before Engine::run.
  void start();

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const FaultConfig& config() const { return config_; }

  /// Attaches a trace buffer recording hazard failures and brownout
  /// begin/end (node outages are traced by the scheduler they hit).
  void set_trace(obs::TraceBuffer* trace) { trace_ = trace; }

  /// Registers the fault tallies with `registry` under "fault.".
  void bind_metrics(obs::MetricsRegistry& registry) const;

 private:
  void schedule_outage(std::size_t i);
  void begin_outage(std::size_t i);
  void end_outage(std::size_t i, int taken);
  void on_job_start(const Job& job);
  void schedule_brownout(std::size_t g);
  void begin_brownout(std::size_t g);

  Engine& engine_;
  SchedulerPool& pool_;
  FaultConfig config_;
  Duration horizon_;
  std::vector<std::unique_ptr<Gateway>>* gateways_;
  std::vector<ResourceId> ids_;    ///< pool resources, in platform order
  std::vector<Rng> resource_rngs_; ///< one outage stream per resource
  Rng hazard_rng_;
  std::vector<Rng> gateway_rngs_;  ///< one brownout stream per gateway
  Stats stats_;
  obs::TraceBuffer* trace_ = nullptr;  ///< optional flight recorder
};

}  // namespace tg
