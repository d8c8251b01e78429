// TrafficGenerator: turns the synthetic population into open-loop load on
// the whole platform — direct batch submissions, gateway sessions,
// workflow/ensemble campaigns, co-allocations, viz sessions, WAN transfers
// and exploratory bursts. Every actor stops *initiating* work at the
// horizon; in-flight work is allowed to finish naturally.
//
// Campaign shape is resolved through the population's ArchetypeRegistry:
// each user's spec selects the campaign body (via the behavior variant)
// and supplies its parameters, arrival rate, and optional data-access
// trait. Specs with an enabled DataAccessSpec route their batch jobs
// through DataGrid::stage_in before submission.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "accounting/usage_db.hpp"
#include "data/data_grid.hpp"
#include "des/engine.hpp"
#include "gateway/gateway.hpp"
#include "meta/coalloc.hpp"
#include "net/flow.hpp"
#include "sched/pool.hpp"
#include "util/rng.hpp"
#include "workflow/engine.hpp"
#include "workload/population.hpp"

namespace tg {

class TrafficGenerator {
 public:
  TrafficGenerator(Engine& engine, const Platform& platform,
                   SchedulerPool& pool, FlowManager& flows,
                   WorkflowEngine& workflows, CoAllocator& coalloc,
                   std::vector<std::unique_ptr<Gateway>>& gateways,
                   Recorder& recorder, const Population& population,
                   DataGrid* data_grid, Duration horizon, Rng rng);

  /// Schedules the first arrival of every actor. Call once, then run the
  /// engine.
  void start();

  /// Campaigns initiated per modality (generator-side ground truth).
  [[nodiscard]] const std::array<std::uint64_t, kModalityCount>& campaigns()
      const {
    return campaigns_;
  }

 private:
  void schedule_account_arrival(std::size_t user_idx);
  void run_account_campaign(std::size_t user_idx);
  void schedule_gateway_arrival(std::size_t end_user_idx);
  void run_gateway_session(std::size_t end_user_idx);

  // Per-behavior campaign bodies (dispatched over the spec's variant).
  void campaign_capacity(const SyntheticUser& user, const ArchetypeSpec& spec,
                         const CapacityParams& p, Rng& rng);
  void campaign_capability(const SyntheticUser& user, const ArchetypeSpec& spec,
                           const CapabilityParams& p, Rng& rng);
  void campaign_workflow(const SyntheticUser& user, const WorkflowParams& p,
                         Rng& rng);
  void campaign_coupled(const SyntheticUser& user, const CoupledParams& p,
                        Rng& rng);
  void campaign_viz(const SyntheticUser& user, const VizParams& p, Rng& rng);
  void campaign_data(const SyntheticUser& user, const DataParams& p, Rng& rng);
  void campaign_exploratory(const SyntheticUser& user,
                            const ArchetypeSpec& spec,
                            const ExploratoryParams& p, Rng& rng);

  /// Builds a batch request with realistic walltime over-request and
  /// occasional under-request (kill).
  JobRequest make_request(const SyntheticUser& user, ResourceId resource,
                          int cores, Duration actual, double fail_prob,
                          double kill_prob, Rng& rng) const;
  /// Submits at a delay, guarded by the horizon.
  void submit_later(Duration delay, ResourceId resource, JobRequest request);
  /// Routes one batch job either straight to the scheduler (no data trait)
  /// or through the data grid's stage-in first. The access profile is drawn
  /// here, at campaign time, so the user's RNG sequence is independent of
  /// transfer timing and sharding.
  void dispatch_job(const ArchetypeSpec& spec, const SyntheticUser& user,
                    Duration delay, ResourceId resource, JobRequest request,
                    Rng& rng);

  [[nodiscard]] ProjectId project_of(UserId user) const;
  [[nodiscard]] Rng& user_rng(std::size_t user_idx);
  [[nodiscard]] Rng& end_user_rng(std::size_t idx);

  Engine& engine_;
  const Platform& platform_;
  SchedulerPool& pool_;
  FlowManager& flows_;
  WorkflowEngine& workflows_;
  CoAllocator& coalloc_;
  std::vector<std::unique_ptr<Gateway>>& gateways_;
  Recorder& recorder_;
  const Population& population_;
  DataGrid* data_grid_;
  /// The gateway spec's session parameters (defaults when the registry has
  /// no gateway spec — then there are no end users to drive anyway).
  GatewayUserParams gateway_params_;
  double gateway_per_week_ = 0.0;
  Duration horizon_;
  std::vector<Rng> user_rngs_;
  std::vector<Rng> end_user_rngs_;
  std::array<std::uint64_t, kModalityCount> campaigns_{};
};

}  // namespace tg
