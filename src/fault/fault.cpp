#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>

#include "util/distributions.hpp"
#include "util/error.hpp"

namespace tg {

namespace {

constexpr double kBrownoutMeanHours = 2.0;
/// Coefficient of variation of the lognormal repair times.
constexpr double kRepairCv = 1.0;

[[nodiscard]] Duration from_hours(double hours) {
  return static_cast<Duration>(
      std::llround(hours * static_cast<double>(kHour)));
}

}  // namespace

FaultModel::FaultModel(Engine& engine, SchedulerPool& pool, FaultConfig config,
                       Duration horizon, Rng rng,
                       std::vector<std::unique_ptr<Gateway>>* gateways)
    : engine_(engine),
      pool_(pool),
      config_(config),
      horizon_(horizon),
      gateways_(gateways),
      ids_(pool.resource_ids()),
      hazard_rng_(rng.fork("hazards")) {
  const OutageProcess& o = config_.outage;
  TG_REQUIRE(o.mtbf_hours >= 0.0, "MTBF must be non-negative");
  TG_REQUIRE(o.repair_mean_hours > 0.0, "mean repair time must be positive");
  TG_REQUIRE(o.full_outage_prob >= 0.0 && o.full_outage_prob <= 1.0,
             "full-outage probability must be a probability");
  TG_REQUIRE(config_.job_failure_rate_per_hour >= 0.0,
             "job failure rate must be non-negative");
  TG_REQUIRE(config_.gateway_brownouts_per_week >= 0.0,
             "brownout rate must be non-negative");

  // Substreams are forked up front, in platform order, so fault randomness
  // is independent of event interleaving and of every other consumer.
  const Rng outage_parent = rng.fork("outages");
  resource_rngs_.reserve(ids_.size());
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    resource_rngs_.push_back(outage_parent.fork(static_cast<std::uint64_t>(i)));
  }
  if (gateways_ != nullptr) {
    const Rng brownout_parent = rng.fork("brownouts");
    gateway_rngs_.reserve(gateways_->size());
    for (std::size_t g = 0; g < gateways_->size(); ++g) {
      gateway_rngs_.push_back(
          brownout_parent.fork(static_cast<std::uint64_t>(g)));
    }
  }
}

void FaultModel::start() {
  if (config_.outage.mtbf_hours > 0.0) {
    for (std::size_t i = 0; i < ids_.size(); ++i) schedule_outage(i);
  }
  if (config_.job_failure_rate_per_hour > 0.0) {
    pool_.add_on_start_all([this](const Job& job) { on_job_start(job); });
  }
  if (config_.gateway_brownouts_per_week > 0.0 && gateways_ != nullptr) {
    for (std::size_t g = 0; g < gateways_->size(); ++g) schedule_brownout(g);
  }
}

void FaultModel::schedule_outage(std::size_t i) {
  Rng& rng = resource_rngs_[i];
  const double hours =
      Exponential(1.0 / config_.outage.mtbf_hours).sample(rng);
  const Duration gap = std::max<Duration>(kMinute, from_hours(hours));
  const SimTime at = engine_.now() + gap;
  if (at >= horizon_) return;  // stop initiating; lets the drain terminate
  engine_.schedule_at(at, [this, i] { begin_outage(i); });
}

void FaultModel::begin_outage(std::size_t i) {
  Rng& rng = resource_rngs_[i];
  ResourceScheduler& sched = pool_.at(ids_[i]);
  const ComputeResource& res = sched.resource();
  int nodes = res.nodes;
  if (!rng.bernoulli(config_.outage.full_outage_prob)) {
    const double fraction = rng.uniform(0.05, 0.5);
    nodes = std::clamp(
        static_cast<int>(std::ceil(fraction * static_cast<double>(res.nodes))),
        1, res.nodes);
  }
  const double repair_hours =
      LogNormal::from_mean_cv(config_.outage.repair_mean_hours, kRepairCv)
          .sample(rng);
  const Duration repair = std::max<Duration>(kMinute, from_hours(repair_hours));
  const SimTime until = engine_.now() + repair;
  // Overlapping outages on one machine: take whatever is still up.
  const int taken =
      std::min(nodes, sched.resource().nodes - sched.nodes_down());
  if (taken > 0) {
    const int got = sched.begin_outage(taken, until);
    stats_.outages.inc();
    stats_.node_hours_lost.add(static_cast<double>(got) * to_hours(repair));
    engine_.schedule_at(until, [this, i, got] { end_outage(i, got); },
                        EventPriority::kCompletion);
  } else {
    engine_.schedule_at(until, [this, i] { end_outage(i, 0); },
                        EventPriority::kCompletion);
  }
}

void FaultModel::end_outage(std::size_t i, int taken) {
  if (taken > 0) {
    pool_.at(ids_[i]).end_outage(taken);
    stats_.repairs.inc();
  }
  schedule_outage(i);
}

void FaultModel::on_job_start(const Job& job) {
  // The natural end of this attempt; a hazard beyond it never fires.
  const Duration natural =
      std::min(job.req.actual_runtime, job.req.requested_walltime);
  const Duration at = from_hours(
      Exponential(config_.job_failure_rate_per_hour).sample(hazard_rng_));
  if (at <= 0 || at >= natural) return;
  const JobId id = job.id;
  const ResourceId res = job.resource;
  engine_.schedule_in(at, [this, id, res] {
    if (pool_.at(res).interrupt(id, JobState::kFailed)) {
      stats_.hazard_failures.inc();
      if (trace_ != nullptr) {
        trace_->emit(engine_.now(), obs::TraceCategory::kFault,
                     obs::TracePoint::kHazardFail, id.value(), res.value());
      }
    }
  });
}

void FaultModel::schedule_brownout(std::size_t g) {
  Rng& rng = gateway_rngs_[g];
  const double weeks =
      Exponential(config_.gateway_brownouts_per_week).sample(rng);
  const Duration gap =
      std::max<Duration>(kMinute, from_hours(weeks * 7.0 * 24.0));
  const SimTime at = engine_.now() + gap;
  if (at >= horizon_) return;
  engine_.schedule_at(at, [this, g] { begin_brownout(g); });
}

void FaultModel::begin_brownout(std::size_t g) {
  Rng& rng = gateway_rngs_[g];
  Gateway& gateway = *(*gateways_)[g];
  gateway.set_available(false);
  stats_.brownouts.inc();
  const Duration length = std::max<Duration>(
      kMinute, from_hours(Exponential(1.0 / kBrownoutMeanHours).sample(rng)));
  if (trace_ != nullptr) {
    trace_->emit(engine_.now(), obs::TraceCategory::kFault,
                 obs::TracePoint::kBrownoutBegin, gateway.id().value(),
                 length);
  }
  engine_.schedule_in(length, [this, g] {
    (*gateways_)[g]->set_available(true);
    if (trace_ != nullptr) {
      trace_->emit(engine_.now(), obs::TraceCategory::kFault,
                   obs::TracePoint::kBrownoutEnd, (*gateways_)[g]->id().value());
    }
    schedule_brownout(g);
  });
}

void FaultModel::bind_metrics(obs::MetricsRegistry& registry) const {
  registry.bind_counter("fault.outages", stats_.outages);
  registry.bind_counter("fault.repairs", stats_.repairs);
  registry.bind_gauge("fault.node_hours_lost", stats_.node_hours_lost);
  registry.bind_counter("fault.hazard_failures", stats_.hazard_failures);
  registry.bind_counter("fault.brownouts", stats_.brownouts);
}

}  // namespace tg
