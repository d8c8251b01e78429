// Science-gateway model.
//
// A gateway (nanoHUB-style) runs all jobs under one *community account* and
// charges one community allocation; the identity of the human behind each
// job is carried — when the gateway implements it — as a per-job end-user
// attribute. That attribute is the paper's measurement mechanism for the
// gateway modality, and its incomplete coverage is the measurement gap the
// paper discusses; `attribute_coverage` models it directly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "des/engine.hpp"
#include "obs/trace.hpp"
#include "sched/pool.hpp"
#include "util/distributions.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace tg {

struct GatewayConfig {
  std::string name;
  /// The community account all gateway jobs run under.
  UserId community_account;
  ProjectId project;
  /// Probability that a job record carries the end-user attribute.
  double attribute_coverage = 0.95;
  /// Resources the gateway submits to, each picked with equal weight.
  std::vector<ResourceId> targets;
};

/// Geometry of one gateway job, decided by the calling workload model.
struct GatewayJobSpec {
  int nodes = 1;
  Duration requested_walltime = kHour;
  Duration actual_runtime = 30 * kMinute;
  bool fails = false;
  Duration fail_after = 0;
};

class Gateway {
 public:
  Gateway(Engine& engine, SchedulerPool& pool, GatewayId id,
          GatewayConfig config);

  /// Submits a job on behalf of `end_user` — the interned id of an opaque
  /// label such as "nanohub:4711" (see Population::end_user_pool). The
  /// target resource is sampled uniformly from the targets; the end-user
  /// attribute is attached with probability `attribute_coverage`. During a
  /// brownout the submission is dropped and an invalid JobId is returned —
  /// what a user of a browned-out gateway portal actually experiences.
  JobId submit(EndUserId end_user, const GatewayJobSpec& spec, Rng& rng);

  /// Brownout control (driven by src/fault/FaultModel): while unavailable,
  /// every submit is dropped.
  void set_available(bool available) { available_ = available; }
  [[nodiscard]] bool available() const { return available_; }
  [[nodiscard]] std::uint64_t jobs_dropped() const { return dropped_; }

  [[nodiscard]] GatewayId id() const { return id_; }
  [[nodiscard]] const GatewayConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t jobs_submitted() const { return submitted_; }

  /// Attaches a trace buffer recording submissions and brownout drops
  /// (nullptr detaches). Must outlive the gateway or the next set_trace.
  void set_trace(obs::TraceBuffer* trace) { trace_ = trace; }

  /// Registers submission tallies with `registry` under
  /// "gateway.<name>.".
  void bind_metrics(obs::MetricsRegistry& registry) const;

 private:
  Engine& engine_;
  SchedulerPool& pool_;
  GatewayId id_;
  GatewayConfig config_;
  Discrete target_picker_;
  obs::Counter submitted_;
  obs::Counter dropped_;
  bool available_ = true;
  obs::TraceBuffer* trace_ = nullptr;
};

}  // namespace tg
