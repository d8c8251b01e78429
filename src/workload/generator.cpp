#include "workload/generator.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <variant>

#include "util/distributions.hpp"
#include "util/error.hpp"

namespace tg {

namespace {

/// Exponential inter-arrival gap for a weekly rate scaled per user.
Duration arrival_gap(double per_week, double scale, Rng& rng) {
  const double rate = std::max(1e-9, per_week * scale);
  const Exponential exp_gap(rate / static_cast<double>(kWeek));
  const double gap = exp_gap.sample(rng);
  return std::max<Duration>(kSecond, static_cast<Duration>(gap));
}

Duration lognormal_runtime(double mean_hours, double cv, Rng& rng) {
  const LogNormal dist = LogNormal::from_mean_cv(mean_hours, cv);
  const double hours = dist.sample(rng);
  return std::max<Duration>(kMinute,
                            static_cast<Duration>(hours * kHour));
}

int cores_to_nodes(const ComputeResource& res, int cores) {
  const int nodes =
      (cores + res.cores_per_node - 1) / res.cores_per_node;
  return std::clamp(nodes, 1, res.nodes);
}

}  // namespace

TrafficGenerator::TrafficGenerator(
    Engine& engine, const Platform& platform, SchedulerPool& pool,
    FlowManager& flows, WorkflowEngine& workflows, CoAllocator& coalloc,
    std::vector<std::unique_ptr<Gateway>>& gateways, Recorder& recorder,
    const Population& population, DataGrid* data_grid, Duration horizon,
    Rng rng)
    : engine_(engine),
      platform_(platform),
      pool_(pool),
      flows_(flows),
      workflows_(workflows),
      coalloc_(coalloc),
      gateways_(gateways),
      recorder_(recorder),
      population_(population),
      data_grid_(data_grid),
      horizon_(horizon) {
  TG_REQUIRE(horizon > 0, "horizon must be positive");
  for (const ArchetypeSpec& spec : population.registry.specs()) {
    if (spec.is_gateway()) {
      gateway_params_ = std::get<GatewayUserParams>(spec.behavior);
      gateway_per_week_ = spec.per_week;
      break;
    }
  }
  user_rngs_.reserve(population.users.size());
  for (std::size_t i = 0; i < population.users.size(); ++i) {
    user_rngs_.push_back(rng.fork(0x10000 + i));
  }
  end_user_rngs_.reserve(population.gateway_end_users.size());
  for (std::size_t i = 0; i < population.gateway_end_users.size(); ++i) {
    end_user_rngs_.push_back(rng.fork(0x800000 + i));
  }
}

Rng& TrafficGenerator::user_rng(std::size_t user_idx) {
  return user_rngs_[user_idx];
}

Rng& TrafficGenerator::end_user_rng(std::size_t idx) {
  return end_user_rngs_[idx];
}

ProjectId TrafficGenerator::project_of(UserId user) const {
  return population_.community.user(user).project;
}

void TrafficGenerator::start() {
  for (std::size_t i = 0; i < population_.users.size(); ++i) {
    const SimTime from =
        std::max(population_.users[i].active_from, engine_.now());
    if (from >= horizon_) continue;
    if (from > engine_.now()) {
      engine_.schedule_at(from, [this, i] { schedule_account_arrival(i); },
                          EventPriority::kSubmission);
    } else {
      schedule_account_arrival(i);
    }
  }
  for (std::size_t i = 0; i < population_.gateway_end_users.size(); ++i) {
    const SimTime from =
        std::max(population_.gateway_end_users[i].active_from, engine_.now());
    if (from >= horizon_) continue;
    if (from > engine_.now()) {
      engine_.schedule_at(from, [this, i] { schedule_gateway_arrival(i); },
                          EventPriority::kSubmission);
    } else {
      schedule_gateway_arrival(i);
    }
  }
}

void TrafficGenerator::schedule_account_arrival(std::size_t user_idx) {
  const SyntheticUser& user = population_.users[user_idx];
  const ArchetypeSpec& spec = population_.registry.at(user.archetype);
  TG_CHECK(!spec.is_gateway(), "community accounts do not self-generate");
  Rng& rng = user_rng(user_idx);
  const Duration gap = arrival_gap(spec.per_week, user.activity_scale, rng);
  const SimTime at = engine_.now() + gap;
  if (at >= horizon_) return;
  engine_.schedule_at(at, [this, user_idx] { run_account_campaign(user_idx); },
                      EventPriority::kSubmission);
}

void TrafficGenerator::run_account_campaign(std::size_t user_idx) {
  const SyntheticUser& user = population_.users[user_idx];
  const ArchetypeSpec& spec = population_.registry.at(user.archetype);
  Rng& rng = user_rng(user_idx);
  ++campaigns_[static_cast<std::size_t>(spec.truth)];
  std::visit(
      [&](const auto& p) {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, CapacityParams>) {
          campaign_capacity(user, spec, p, rng);
        } else if constexpr (std::is_same_v<T, CapabilityParams>) {
          campaign_capability(user, spec, p, rng);
        } else if constexpr (std::is_same_v<T, WorkflowParams>) {
          campaign_workflow(user, p, rng);
        } else if constexpr (std::is_same_v<T, CoupledParams>) {
          campaign_coupled(user, p, rng);
        } else if constexpr (std::is_same_v<T, VizParams>) {
          campaign_viz(user, p, rng);
        } else if constexpr (std::is_same_v<T, DataParams>) {
          campaign_data(user, p, rng);
        } else if constexpr (std::is_same_v<T, ExploratoryParams>) {
          campaign_exploratory(user, spec, p, rng);
        } else {
          TG_CHECK(false, "community accounts do not self-generate");
        }
      },
      spec.behavior);
  schedule_account_arrival(user_idx);
}

JobRequest TrafficGenerator::make_request(const SyntheticUser& user,
                                          ResourceId resource, int cores,
                                          Duration actual, double fail_prob,
                                          double kill_prob, Rng& rng) const {
  const ComputeResource& res = platform_.compute_at(resource);
  JobRequest req;
  req.user = user.id;
  req.project = project_of(user.id);
  req.nodes = cores_to_nodes(res, cores);
  actual = std::clamp<Duration>(actual, kMinute, res.max_walltime);
  req.actual_runtime = actual;
  if (rng.bernoulli(kill_prob)) {
    // Under-requested walltime: the scheduler will kill this job.
    req.requested_walltime = std::max<Duration>(
        10 * kMinute,
        static_cast<Duration>(static_cast<double>(actual) *
                              rng.uniform(0.5, 0.95)));
  } else {
    req.requested_walltime = std::min<Duration>(
        res.max_walltime,
        static_cast<Duration>(static_cast<double>(actual) *
                              rng.uniform(1.2, 3.0)));
  }
  if (rng.bernoulli(fail_prob)) {
    req.fails = true;
    req.fail_after = static_cast<Duration>(static_cast<double>(actual) *
                                           rng.uniform(0.01, 0.5));
  }
  return req;
}

void TrafficGenerator::submit_later(Duration delay, ResourceId resource,
                                    JobRequest request) {
  const SimTime at = engine_.now() + delay;
  if (at >= horizon_) return;
  engine_.schedule_at(
      at,
      [this, resource, request = std::move(request)]() mutable {
        pool_.at(resource).submit(std::move(request));
      },
      EventPriority::kSubmission);
}

void TrafficGenerator::dispatch_job(const ArchetypeSpec& spec,
                                    const SyntheticUser& user, Duration delay,
                                    ResourceId resource, JobRequest request,
                                    Rng& rng) {
  if (data_grid_ == nullptr || !spec.data.enabled ||
      !data_grid_->has_pool(user.archetype)) {
    submit_later(delay, resource, std::move(request));
    return;
  }
  DataAccessProfile profile = data_grid_->draw_profile(user.archetype, rng);
  const SimTime at = engine_.now() + delay;
  if (at >= horizon_) return;
  engine_.schedule_at(
      at,
      [this, resource, request = std::move(request),
       profile = std::move(profile)]() mutable {
        data_grid_->stage_in(
            resource, request.user, request.project, std::move(profile),
            [this, resource,
             request = std::move(request)](const StageInResult& r) mutable {
              request.bytes_read = r.bytes_read;
              request.bytes_from_cache = r.bytes_from_cache;
              request.stage_in = r.stage_in;
              pool_.at(resource).submit(std::move(request));
            });
      },
      EventPriority::kSubmission);
}

void TrafficGenerator::campaign_capacity(const SyntheticUser& user,
                                         const ArchetypeSpec& spec,
                                         const CapacityParams& p, Rng& rng) {
  const int njobs = static_cast<int>(
      rng.uniform_int(p.jobs_per_campaign_min, p.jobs_per_campaign_max));
  const Exponential think(1.0 / static_cast<double>(p.think_mean));
  Duration offset = 0;
  for (int j = 0; j < njobs; ++j) {
    const ResourceId target =
        user.preferred[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(user.preferred.size()) - 1))];
    const LogUniformInt cores_dist(p.cores_min, p.cores_max);
    const std::int64_t cores =
        snap_to_power_of_two(cores_dist.sample(rng), p.pow2_prob, rng);
    const Duration actual =
        lognormal_runtime(p.runtime_mean_hours, p.runtime_cv, rng);
    dispatch_job(spec, user, offset, target,
                 make_request(user, target, static_cast<int>(cores), actual,
                              p.fail_prob, p.kill_prob, rng),
                 rng);
    offset += static_cast<Duration>(think.sample(rng));
  }
}

void TrafficGenerator::campaign_capability(const SyntheticUser& user,
                                           const ArchetypeSpec& spec,
                                           const CapabilityParams& p,
                                           Rng& rng) {
  const ResourceId target = user.preferred.front();
  const ComputeResource& res = platform_.compute_at(target);
  const double frac =
      rng.uniform(p.machine_fraction_min, p.machine_fraction_max);
  const int cores = std::max(1, static_cast<int>(frac * res.total_cores()));
  const Duration actual =
      lognormal_runtime(p.runtime_mean_hours, p.runtime_cv, rng);
  dispatch_job(spec, user, 0, target,
               make_request(user, target, cores, actual, p.fail_prob,
                            p.kill_prob, rng),
               rng);
}

void TrafficGenerator::campaign_workflow(const SyntheticUser& user,
                                         const WorkflowParams& p, Rng& rng) {
  const LogUniformInt width_dist(p.width_min, p.width_max);
  const int width = static_cast<int>(width_dist.sample(rng));
  const int member_nodes = static_cast<int>(
      rng.uniform_int(p.member_nodes_min, p.member_nodes_max));
  const Duration member_runtime = lognormal_runtime(
      p.member_runtime_mean_hours, p.member_runtime_cv, rng);

  if (rng.bernoulli(p.engine_prob)) {
    // Tagged: through the workflow engine.
    DagTask member;
    member.nodes = member_nodes;
    member.actual_runtime = member_runtime;
    member.requested_walltime = std::min<Duration>(
        48 * kHour, static_cast<Duration>(
                        static_cast<double>(member_runtime) * 2.0));
    member.fails = rng.bernoulli(p.fail_prob);
    member.fail_after = member_runtime / 4;
    Dag dag;
    if (rng.bernoulli(p.fan_prob)) {
      DagTask stage = member;
      stage.output_bytes = p.stage_output_gb * 1e9;
      DagTask merge = member;
      merge.nodes = 1;
      dag = make_fan_out_fan_in(width, stage, member, merge);
    } else {
      dag = make_ensemble(width, member);
    }
    workflows_.submit(std::move(dag), user.id, project_of(user.id));
  } else {
    // Untagged manual sweep: identical geometry submitted in a burst to
    // one machine; only burst clustering can identify it.
    const ResourceId target = user.preferred.front();
    const ComputeResource& res = platform_.compute_at(target);
    JobRequest proto;
    proto.user = user.id;
    proto.project = project_of(user.id);
    proto.nodes = std::clamp(member_nodes, 1, res.nodes);
    proto.requested_walltime = std::min<Duration>(
        res.max_walltime, static_cast<Duration>(
                              static_cast<double>(member_runtime) * 2.0));
    const Exponential gap(1.0 / static_cast<double>(kMinute));
    Duration offset = 0;
    for (int j = 0; j < width; ++j) {
      JobRequest req = proto;
      // Actual runtimes vary a little; geometry stays identical.
      req.actual_runtime = std::max<Duration>(
          kMinute, static_cast<Duration>(static_cast<double>(member_runtime) *
                                         rng.uniform(0.8, 1.2)));
      req.fails = rng.bernoulli(p.fail_prob);
      req.fail_after = req.actual_runtime / 4;
      submit_later(offset, target, std::move(req));
      offset += static_cast<Duration>(gap.sample(rng));
    }
  }
}

void TrafficGenerator::campaign_coupled(const SyntheticUser& user,
                                        const CoupledParams& p, Rng& rng) {
  CoAllocRequest req;
  req.user = user.id;
  req.project = project_of(user.id);
  const Duration actual =
      lognormal_runtime(p.runtime_mean_hours, p.runtime_cv, rng);
  req.actual_runtime = actual;
  req.walltime = static_cast<Duration>(static_cast<double>(actual) * 1.5);
  const int sites =
      std::min<int>(p.sites, static_cast<int>(user.preferred.size()));
  for (int s = 0; s < sites; ++s) {
    CoAllocMember m;
    m.resource = user.preferred[static_cast<std::size_t>(s)];
    m.nodes = static_cast<int>(
        rng.uniform_int(p.nodes_per_site_min, p.nodes_per_site_max));
    m.nodes = std::min(m.nodes, platform_.compute_at(m.resource).nodes);
    req.members.push_back(m);
  }
  // Walltime must respect every member machine's limit.
  for (const CoAllocMember& m : req.members) {
    req.walltime =
        std::min(req.walltime, platform_.compute_at(m.resource).max_walltime);
  }
  req.actual_runtime = std::min(req.actual_runtime, req.walltime);
  coalloc_.co_allocate(req);
}

void TrafficGenerator::campaign_viz(const SyntheticUser& user,
                                    const VizParams& p, Rng& rng) {
  const ResourceId target = user.preferred.front();
  const ComputeResource& res = platform_.compute_at(target);
  const Duration len = static_cast<Duration>(
      rng.uniform(p.session_hours_min, p.session_hours_max) * kHour);
  const int nodes =
      static_cast<int>(rng.uniform_int(p.nodes_min, p.nodes_max));

  if (rng.bernoulli(p.prejob_prob)) {
    JobRequest pre = make_request(user, target, nodes * res.cores_per_node,
                                  len / 2, 0.02, 0.02, rng);
    submit_later(0, target, std::move(pre));
  }

  JobRequest req;
  req.user = user.id;
  req.project = project_of(user.id);
  req.nodes = std::clamp(nodes, 1, res.nodes);
  req.actual_runtime = std::min<Duration>(len, res.max_walltime);
  req.requested_walltime = std::min<Duration>(
      res.max_walltime,
      static_cast<Duration>(static_cast<double>(len) * 1.25));
  req.interactive = true;
  pool_.at(target).submit(std::move(req));

  // The session log entry is written when the session closes.
  const SimTime start = engine_.now();
  const UserId uid = user.id;
  engine_.schedule_in(len, [this, uid, target, start] {
    recorder_.record_session(uid, target, start, engine_.now(), /*viz=*/true);
  });
}

void TrafficGenerator::campaign_data(const SyntheticUser& user,
                                     const DataParams& p, Rng& rng) {
  const auto nsites = static_cast<std::int64_t>(platform_.sites().size());
  const SiteId src{static_cast<SiteId::rep>(rng.uniform_int(0, nsites - 1))};
  SiteId dst{static_cast<SiteId::rep>(rng.uniform_int(0, nsites - 1))};
  if (dst == src) {
    dst = SiteId{static_cast<SiteId::rep>((src.value() + 1) % nsites)};
  }
  const BoundedPareto bytes_dist(p.bytes_alpha, p.bytes_min, p.bytes_max);
  const double bytes = bytes_dist.sample(rng);

  const bool analyse = rng.bernoulli(p.analysis_prob);
  const SyntheticUser* uptr = &user;
  flows_.start_transfer(
      src, dst, bytes, user.id, project_of(user.id),
      [this, uptr, analyse](const Flow&) {
        if (!analyse || engine_.now() >= horizon_) return;
        Rng& r = user_rngs_[static_cast<std::size_t>(
            uptr - population_.users.data())];
        const ResourceId target = uptr->preferred.front();
        JobRequest req = make_request(*uptr, target, 8, kHour / 2, 0.02,
                                      0.02, r);
        pool_.at(target).submit(std::move(req));
      });
}

void TrafficGenerator::campaign_exploratory(const SyntheticUser& user,
                                            const ArchetypeSpec& spec,
                                            const ExploratoryParams& p,
                                            Rng& rng) {
  const int njobs = static_cast<int>(
      rng.uniform_int(p.jobs_per_burst_min, p.jobs_per_burst_max));
  const ResourceId target = user.preferred.front();
  const Exponential gap(1.0 / static_cast<double>(5 * kMinute));
  Duration offset = 0;
  for (int j = 0; j < njobs; ++j) {
    const Duration actual =
        lognormal_runtime(p.runtime_mean_hours, p.runtime_cv, rng);
    dispatch_job(spec, user, offset, target,
                 make_request(user, target, 1, actual, p.fail_prob, 0.05, rng),
                 rng);
    offset += static_cast<Duration>(gap.sample(rng));
  }
}

void TrafficGenerator::schedule_gateway_arrival(std::size_t end_user_idx) {
  const GatewayEndUser& eu = population_.gateway_end_users[end_user_idx];
  Rng& rng = end_user_rng(end_user_idx);
  const Duration gap = arrival_gap(gateway_per_week_, eu.activity_scale, rng);
  const SimTime at = engine_.now() + gap;
  if (at >= horizon_) return;
  engine_.schedule_at(
      at, [this, end_user_idx] { run_gateway_session(end_user_idx); },
      EventPriority::kSubmission);
}

void TrafficGenerator::run_gateway_session(std::size_t end_user_idx) {
  const GatewayEndUser& eu = population_.gateway_end_users[end_user_idx];
  Rng& rng = end_user_rng(end_user_idx);
  ++campaigns_[static_cast<std::size_t>(Modality::kGateway)];
  Gateway& gw = *gateways_[eu.gateway_index];
  const GatewayUserParams& p = gateway_params_;
  const int njobs = static_cast<int>(
      rng.uniform_int(p.jobs_per_session_min, p.jobs_per_session_max));
  const Exponential think(1.0 / static_cast<double>(10 * kMinute));
  Duration offset = 0;
  for (int j = 0; j < njobs; ++j) {
    GatewayJobSpec spec;
    spec.nodes = static_cast<int>(rng.uniform_int(p.nodes_min, p.nodes_max));
    spec.actual_runtime =
        lognormal_runtime(p.runtime_mean_hours, p.runtime_cv, rng);
    spec.requested_walltime = std::min<Duration>(
        12 * kHour, static_cast<Duration>(
                        static_cast<double>(spec.actual_runtime) * 2.0));
    spec.fails = rng.bernoulli(p.fail_prob);
    spec.fail_after = spec.actual_runtime / 3;
    const SimTime at = engine_.now() + offset;
    if (at < horizon_) {
      const EndUserId end_user = eu.id;
      engine_.schedule_at(
          at,
          [this, &gw, end_user, spec, end_user_idx] {
            gw.submit(end_user, spec, end_user_rng(end_user_idx));
          },
          EventPriority::kSubmission);
    }
    offset += static_cast<Duration>(think.sample(rng));
  }
  schedule_gateway_arrival(end_user_idx);
}

}  // namespace tg
