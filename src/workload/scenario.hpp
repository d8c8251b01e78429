// The Simulation facade: one object that builds the platform, population,
// middleware and accounting, runs the clock, and exposes the database and
// ground truth for analysis. Examples, tests and every experiment binary go
// through this.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "accounting/usage_db.hpp"
#include "core/classifier.hpp"
#include "core/report.hpp"
#include "core/streaming.hpp"
#include "des/engine.hpp"
#include "fault/fault.hpp"
#include "fault/invariants.hpp"
#include "gateway/gateway.hpp"
#include "meta/coalloc.hpp"
#include "net/flow.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/pool.hpp"
#include "util/error.hpp"
#include "workflow/engine.hpp"
#include "workload/generator.hpp"
#include "workload/population.hpp"

namespace tg {

struct ScenarioConfig {
  std::uint64_t seed = 42;
  Duration horizon = kYear;
  /// Composable archetype registry. Empty (the default) means
  /// ArchetypeRegistry::builtin(); non-empty registries are taken verbatim.
  ArchetypeRegistry registry;
  /// Replica catalog + site caches + stage-in model. Disabled by default:
  /// no DataGrid is constructed, no "data" RNG substream is forked, and
  /// output is byte-identical to a build without the subsystem.
  DataGridConfig data_grid;
  SchedulerConfig sched;
  double gateway_attribute_coverage = 0.9;
  double gateway_adoption_ramp = 0.6;
  FeatureConfig features;
  /// Fault injection; disabled by default (no events, no extra randomness,
  /// byte-identical output to a fault-free build).
  FaultConfig faults;
  /// Use the tiny 2-resource platform instead of the TeraGrid preset
  /// (integration tests).
  bool mini_platform = false;
  /// When positive, run() audits the simulation every `audit_every` of sim
  /// time (AuditPhase::kMidRun — see fault/invariants.hpp) and throws
  /// InvariantError at the first failing audit, so a broken conservation
  /// law surfaces near the event that broke it instead of after the drain.
  /// The audits read state the reporting layer already observes; the
  /// simulation outcome is byte-identical with or without them.
  Duration audit_every = 0;
  /// Optional flight recorder, attached to every scheduler, gateway and
  /// the fault model (see obs/trace.hpp). Single-writer: never share one
  /// buffer between scenarios replicated on different threads.
  obs::TraceBuffer* trace = nullptr;
  /// Streaming modality measurement (DESIGN.md §5.9): when enabled, a
  /// StreamingExtractor subscribes to the database's append stream and the
  /// quarterly modality series is produced *during* the run — byte-identical
  /// to the batch quarterly_series over the same range. A positive
  /// `segments.segment_records` switches the database to the spillable
  /// columnar record log (out-of-core accounting), whether or not
  /// `enabled` is set.
  struct StreamingOptions {
    bool enabled = false;
    Duration bucket = kQuarter;
    /// Series end (exclusive); 0 derives floor(horizon / bucket) * bucket,
    /// falling back to the horizon itself when it is under one bucket.
    SimTime series_end = 0;
    SegmentLogConfig segments;
  };
  StreamingOptions streaming;

  // --- Fluent construction --------------------------------------------------
  // `ScenarioConfig::defaults().with_scale(2.0).with_streaming(s)` reads
  // as the experiment it configures. Every with_* mutates one knob and
  // returns the config for chaining; plain aggregate initialization keeps
  // working unchanged.

  [[nodiscard]] static ScenarioConfig defaults() { return ScenarioConfig{}; }

  ScenarioConfig& with_seed(std::uint64_t s) {
    seed = s;
    return *this;
  }
  ScenarioConfig& with_horizon(Duration h) {
    horizon = h;
    return *this;
  }
  /// Multiplies every archetype count by `factor` (rounded, floor 1 for
  /// counts that started positive). An empty registry is first seeded from
  /// builtin().
  ScenarioConfig& with_scale(double factor) {
    if (registry.empty()) registry = ArchetypeRegistry::builtin();
    registry.scale(factor);
    return *this;
  }
  /// Replaces the archetype registry wholesale.
  ScenarioConfig& with_registry(ArchetypeRegistry r) {
    registry = std::move(r);
    return *this;
  }
  /// Adds (or replaces, by name) one archetype spec. On first use the
  /// registry is seeded from builtin().
  ScenarioConfig& with_archetype(ArchetypeSpec spec) {
    if (registry.empty()) registry = ArchetypeRegistry::builtin();
    registry.add(std::move(spec));
    return *this;
  }
  /// Enables the data-grid subsystem (replica catalog, site caches,
  /// stage-in before submission for specs with a data trait).
  ScenarioConfig& with_data_grid(DataGridConfig d) {
    data_grid = d;
    return *this;
  }
  ScenarioConfig& with_policy(SchedPolicy p) {
    sched.policy = p;
    return *this;
  }
  /// Toggles the incremental plan cache on every scheduler (off = the
  /// from-scratch reference planner; outcomes are identical either way,
  /// which the --exact-replan golden check enforces).
  ScenarioConfig& with_plan_cache(bool on) {
    sched.plan_cache = on;
    return *this;
  }
  ScenarioConfig& with_gateway_attribute_coverage(double coverage) {
    gateway_attribute_coverage = coverage;
    return *this;
  }
  ScenarioConfig& with_gateway_adoption_ramp(double ramp) {
    gateway_adoption_ramp = ramp;
    return *this;
  }
  ScenarioConfig& with_trace(obs::TraceBuffer* t) {
    trace = t;
    return *this;
  }
  /// Accepts only 0, the one execution mode the engine has. Kept because
  /// the frozen benchmark (perfbench/src/workloads.cpp) still calls
  /// .with_shards(0) and is not edited together with the library; delete
  /// it along with that call.
  ScenarioConfig& with_shards(int n) {
    TG_REQUIRE(n == 0, "the engine has no windowed execution (shards="
                           << n << "); only 0 is accepted");
    return *this;
  }
  ScenarioConfig& with_audit_every(Duration every) {
    audit_every = every;
    return *this;
  }
  ScenarioConfig& with_streaming(StreamingOptions s) {
    streaming = std::move(s);
    return *this;
  }
};

class Scenario {
 public:
  explicit Scenario(ScenarioConfig config);

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Runs the simulated clock to the horizon, then drains remaining events
  /// (jobs already queued/running finish; nothing new is initiated).
  void run();

  /// Audits the simulation's current state (see check_invariants); callable
  /// at any quiescent point — between events, or from a kReporting-priority
  /// event like the recurring config.audit_every audit. Defaults to the
  /// mid-run relaxations; pass AuditPhase::kFinal after run() for the full
  /// six families.
  [[nodiscard]] InvariantReport audit_now(
      AuditPhase phase = AuditPhase::kMidRun) const;

  [[nodiscard]] const ScenarioConfig& config() const { return config_; }
  [[nodiscard]] const Platform& platform() const { return platform_; }
  [[nodiscard]] Engine& engine() { return engine_; }
  [[nodiscard]] const Engine& engine() const { return engine_; }
  [[nodiscard]] const Community& community() const {
    return population_.community;
  }
  [[nodiscard]] const Population& population() const { return population_; }
  [[nodiscard]] const GroundTruth& truth() const { return population_.truth; }
  [[nodiscard]] const UsageDatabase& db() const { return db_; }
  [[nodiscard]] UsageDatabase& db() { return db_; }
  [[nodiscard]] const AllocationLedger& ledger() const { return ledger_; }
  [[nodiscard]] SchedulerPool& pool() { return *pool_; }
  [[nodiscard]] const SchedulerPool& pool() const { return *pool_; }
  [[nodiscard]] const WorkflowEngine& workflows() const { return *workflows_; }
  [[nodiscard]] const TrafficGenerator& generator() const {
    return *generator_;
  }
  [[nodiscard]] FlowManager& flows() { return flows_; }
  /// Null unless config.data_grid.enabled.
  [[nodiscard]] const DataGrid* data_grid() const { return data_grid_.get(); }
  /// Null unless config.faults.enabled().
  [[nodiscard]] const FaultModel* faults() const { return faults_.get(); }
  /// Null unless config.streaming.enabled. finish() has already run by the
  /// time run() returns, so series()/time_series() are ready.
  [[nodiscard]] const StreamingExtractor* streaming() const {
    return streaming_.get();
  }
  [[nodiscard]] StreamingExtractor* streaming() { return streaming_.get(); }
  /// Zero stats when fault injection is disabled.
  [[nodiscard]] FaultModel::Stats fault_stats() const {
    return faults_ ? faults_->stats() : FaultModel::Stats{};
  }

  /// The one subscription surface over the run's taps. Window sinks fire
  /// synchronously as each streaming window closes (requires
  /// config.streaming.enabled; call before run()); record observers fire
  /// on every accounting append. Replaces reaching into
  /// streaming()->series() polling and db-level observer wiring.
  void subscribe(std::function<void(const StreamingWindow&)> sink) {
    TG_REQUIRE(streaming_ != nullptr,
               "subscribe(window sink) requires config.streaming.enabled");
    streaming_->add_window_sink(std::move(sink));
  }
  void subscribe(UsageDatabase::RecordObserver* observer) {
    db_.add_observer(observer);
  }

  /// Convenience: the headline modality report over the full horizon.
  [[nodiscard]] ModalityReport report(const RuleClassifier& classifier) const;

  /// Aligned (truth, predicted-primary) vectors over active account users,
  /// for classifier scoring. Users with no recorded activity are skipped.
  struct LabelledPredictions {
    std::vector<Modality> truth;
    std::vector<Modality> predicted;
    std::vector<UserId> users;
  };
  [[nodiscard]] LabelledPredictions predictions(
      const RuleClassifier& classifier) const;

  /// Registers every component's counters with `registry` — engine event
  /// core, per-resource scheduler tallies, gateways, fault model — plus
  /// owned "scenario.*" record counts. Call after run(); the registry must
  /// not outlive this Scenario.
  void publish_metrics(obs::MetricsRegistry& registry) const;

 private:
  /// Arms the next recurring mid-run audit at `at` (no-op past the horizon).
  void schedule_audit(SimTime at);

  ScenarioConfig config_;
  Platform platform_;
  Engine engine_;
  Population population_;
  std::unique_ptr<SchedulerPool> pool_;
  FlowManager flows_;
  std::unique_ptr<DataGrid> data_grid_;
  UsageDatabase db_;
  AllocationLedger ledger_;
  std::unique_ptr<Recorder> recorder_;
  std::unique_ptr<WorkflowEngine> workflows_;
  std::unique_ptr<CoAllocator> coalloc_;
  std::vector<std::unique_ptr<Gateway>> gateways_;
  std::unique_ptr<TrafficGenerator> generator_;
  std::unique_ptr<FaultModel> faults_;
  std::unique_ptr<StreamingExtractor> streaming_;
  bool ran_ = false;
};

}  // namespace tg
