#include "gateway/gateway.hpp"

#include "util/error.hpp"

namespace tg {

Gateway::Gateway(Engine& engine, SchedulerPool& pool, GatewayId id,
                 GatewayConfig config)
    : engine_(engine),
      pool_(pool),
      id_(id),
      config_(std::move(config)),
      target_picker_(std::vector<double>(config_.targets.size(), 1.0)) {
  TG_REQUIRE(!config_.targets.empty(), "gateway " << config_.name
                                                  << " has no targets");
  TG_REQUIRE(config_.attribute_coverage >= 0.0 &&
                 config_.attribute_coverage <= 1.0,
             "attribute coverage must be a probability");
}

JobId Gateway::submit(EndUserId end_user, const GatewayJobSpec& spec,
                      Rng& rng) {
  if (!available_) {
    dropped_.inc();
    if (trace_ != nullptr) {
      trace_->emit(engine_.now(), obs::TraceCategory::kGateway,
                   obs::TracePoint::kGatewayDrop, end_user.value(),
                   id_.value());
    }
    return JobId{};
  }
  const ResourceId target = config_.targets[target_picker_.sample(rng)];
  JobRequest req;
  req.user = config_.community_account;
  req.project = config_.project;
  req.nodes = spec.nodes;
  req.requested_walltime = spec.requested_walltime;
  req.actual_runtime = spec.actual_runtime;
  req.fails = spec.fails;
  req.fail_after = spec.fail_after;
  req.gateway = id_;
  if (rng.bernoulli(config_.attribute_coverage)) {
    req.gateway_end_user = end_user;
  }
  submitted_.inc();
  const JobId job = pool_.at(target).submit(std::move(req));
  if (trace_ != nullptr) {
    trace_->emit(engine_.now(), obs::TraceCategory::kGateway,
                 obs::TracePoint::kGatewaySubmit, end_user.value(),
                 id_.value(), job.value());
  }
  return job;
}

void Gateway::bind_metrics(obs::MetricsRegistry& registry) const {
  const std::string base = "gateway." + config_.name;
  registry.bind_counter(base + ".jobs_submitted", submitted_);
  registry.bind_counter(base + ".jobs_dropped", dropped_);
}

}  // namespace tg
