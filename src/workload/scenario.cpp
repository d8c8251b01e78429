#include "workload/scenario.hpp"

#include "util/error.hpp"

namespace tg {

Scenario::Scenario(ScenarioConfig config)
    : config_(std::move(config)),
      platform_(config_.mini_platform ? mini_platform() : teragrid_2010()),
      population_([&] {
        Rng rng(config_.seed);
        PopulationConfig pc;
        // Resolve the registry here (not in build_population's fallback) so
        // config_.archetypes reaches the builtin specs' rates/behavior.
        pc.registry = config_.registry.empty()
                          ? ArchetypeRegistry::builtin(config_.archetypes)
                          : config_.registry;
        pc.gateways = config_.gateways;
        pc.gateway_attribute_coverage = config_.gateway_attribute_coverage;
        pc.gateway_adoption_ramp = config_.gateway_adoption_ramp;
        pc.horizon = config_.horizon;
        pc.users_per_project = config_.users_per_project;
        return build_population(platform_, pc, rng);
      }()),
      ledger_(population_.community) {
  // Partition the engine by topology before anything is scheduled: the
  // partition ids are part of the canonical event order.
  shard_plan_ = make_shard_plan(platform_);
  engine_.configure_partitions(shard_plan_.partitions);
  // Lets report/label stages resolve interned end-user ids back to labels.
  db_.set_end_user_pool(&population_.end_user_pool);
  pool_ = std::make_unique<SchedulerPool>(engine_, platform_, config_.sched,
                                          &shard_plan_);
  if (config_.enable_flows) {
    flows_ = std::make_unique<FlowManager>(engine_, platform_);
  }
  recorder_ =
      std::make_unique<Recorder>(platform_, db_, &ledger_, config_.charging);
  recorder_->attach(*pool_);
  if (flows_) recorder_->attach(*flows_);
  workflows_ =
      std::make_unique<WorkflowEngine>(engine_, *pool_, flows_.get());
  coalloc_ = std::make_unique<CoAllocator>(engine_, *pool_);
  for (std::size_t g = 0; g < population_.gateway_configs.size(); ++g) {
    gateways_.push_back(std::make_unique<Gateway>(
        engine_, *pool_, GatewayId{static_cast<GatewayId::rep>(g)},
        population_.gateway_configs[g]));
  }
  if (config_.data_grid.enabled) {
    // Like faults: a dedicated "data" fork, and a disabled config never
    // constructs the subsystem at all (zero draws, zero events).
    std::vector<DataAccessSpec> archetype_data;
    archetype_data.reserve(population_.registry.size());
    for (const ArchetypeSpec& s : population_.registry.specs()) {
      archetype_data.push_back(s.data);
    }
    data_grid_ = std::make_unique<DataGrid>(
        engine_, platform_, flows_.get(), config_.data_grid,
        std::move(archetype_data), Rng(config_.seed).fork("data"));
  }
  Rng traffic_rng = Rng(config_.seed).fork("traffic");
  generator_ = std::make_unique<TrafficGenerator>(
      engine_, platform_, *pool_, flows_.get(), *workflows_, *coalloc_,
      gateways_, *recorder_, population_, data_grid_.get(),
      config_.horizon, traffic_rng);
  if (config_.faults.enabled()) {
    // A dedicated fork: fault randomness never perturbs the traffic stream,
    // and a disabled FaultModel is never even constructed, so fault-free
    // runs stay byte-identical to builds without this subsystem.
    faults_ = std::make_unique<FaultModel>(engine_, *pool_, config_.faults,
                                           config_.horizon,
                                           Rng(config_.seed).fork("faults"),
                                           &gateways_);
  }
  if (config_.trace != nullptr) {
    pool_->set_trace_all(config_.trace);
    for (auto& g : gateways_) g->set_trace(config_.trace);
    if (faults_) faults_->set_trace(config_.trace);
  }
  if (config_.streaming.enabled) {
    // Out-of-core storage must be selected before the first record lands.
    if (config_.streaming.segments.segment_records > 0) {
      db_.enable_segments(config_.streaming.segments);
    }
    StreamingConfig sc;
    sc.series_start = 0;
    sc.bucket = config_.streaming.bucket;
    sc.series_end = config_.streaming.series_end;
    if (sc.series_end == 0) {
      sc.series_end = (config_.horizon / sc.bucket) * sc.bucket;
      if (sc.series_end == 0) sc.series_end = config_.horizon;
    }
    sc.features = config_.features;
    sc.thresholds = config_.streaming.thresholds;
    streaming_ = std::make_unique<StreamingExtractor>(platform_, sc);
    db_.add_observer(streaming_.get());
  }
}

void Scenario::run() {
  TG_REQUIRE(!ran_, "Scenario::run() called twice");
  ran_ = true;
  obs::TraceSpan span(config_.trace, engine_.now(),
                      obs::TraceCategory::kEngine,
                      obs::TracePoint::kScenarioRun);
  generator_->start();
  if (faults_) faults_->start();
  if (config_.audit_every > 0) {
    schedule_audit(engine_.now() + config_.audit_every);
  }
  engine_.run_until(config_.horizon);
  // Drain: queued and running work completes, nothing new is initiated
  // (the generator guards every submission with the horizon).
  engine_.run();
  // The drain appended the last records; close the remaining windows so the
  // streaming series is complete when run() returns.
  if (streaming_) streaming_->finish();
  span.set_payload(static_cast<std::int64_t>(engine_.events_processed()),
                   static_cast<std::int64_t>(db_.job_count()));
}

InvariantReport Scenario::audit_now(AuditPhase phase) const {
  return check_invariants(platform_, db_, &ledger_, &population_.community,
                          pool_.get(), config_.charging, phase);
}

void Scenario::schedule_audit(SimTime at) {
  if (at > config_.horizon) return;  // run() audits nothing past the clock
  // kReporting priority on the coordinator: every same-tick completion and
  // replan has fired, so the point is quiescent.
  engine_.schedule_at(
      at,
      [this, at] {
        const InvariantReport report = audit_now(AuditPhase::kMidRun);
        TG_CHECK(report.ok(), "mid-run audit at t=" << at << "ms: "
                                                    << report.to_string());
        schedule_audit(at + config_.audit_every);
      },
      EventPriority::kReporting, EventBinding{0, EventClass::kBarrier});
}

ModalityReport Scenario::report(const RuleClassifier& classifier,
                                ThreadPool* analysis_pool) const {
  return ModalityReport::build(platform_, db_, classifier, 0,
                               engine_.now() + 1, config_.features,
                               analysis_pool, config_.trace);
}

Scenario::LabelledPredictions Scenario::predictions(
    const RuleClassifier& classifier, ThreadPool* analysis_pool) const {
  const FeatureExtractor extractor(platform_, config_.features);
  const auto features =
      extractor.extract(db_, 0, engine_.now() + 1, analysis_pool);
  const auto sets = classifier.classify(features);
  LabelledPredictions out;
  for (std::size_t i = 0; i < features.size(); ++i) {
    if (sets[i].members.none()) continue;
    out.users.push_back(features[i].user);
    out.truth.push_back(population_.truth.of(features[i].user));
    out.predicted.push_back(sets[i].primary);
  }
  return out;
}

void Scenario::publish_metrics(obs::MetricsRegistry& registry) const {
  engine_.bind_metrics(registry);
  pool_->bind_metrics(registry);
  for (const auto& g : gateways_) g->bind_metrics(registry);
  if (faults_) faults_->bind_metrics(registry);
  if (data_grid_) data_grid_->bind_metrics(registry);
  if (streaming_) streaming_->bind_metrics(registry);
  if (db_.segmented()) {
    const SegmentLogStats seg = db_.segment_stats();
    registry.counter("seglog.sealed").set(seg.sealed);
    registry.counter("seglog.spilled").set(seg.spilled);
    registry.counter("seglog.spilled_bytes").set(seg.spilled_bytes);
    registry.counter("seglog.spill_failures").set(seg.spill_failures);
  }
  // Snapshot counts owned by the registry: stable after run().
  registry.counter("scenario.job_records")
      .set(static_cast<std::uint64_t>(db_.job_count()));
  registry.counter("scenario.transfer_records")
      .set(static_cast<std::uint64_t>(db_.transfer_count()));
  registry.counter("scenario.session_records")
      .set(static_cast<std::uint64_t>(db_.session_count()));
  registry.counter("scenario.account_users")
      .set(static_cast<std::uint64_t>(population_.users.size()));
  registry.counter("scenario.gateway_end_users")
      .set(static_cast<std::uint64_t>(population_.gateway_end_users.size()));
  if (config_.trace != nullptr) {
    registry.counter("trace.events_emitted").set(config_.trace->emitted());
    registry.counter("trace.events_dropped").set(config_.trace->dropped());
  }
}

}  // namespace tg
