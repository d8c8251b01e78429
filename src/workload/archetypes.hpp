// Behavioural archetypes: the per-modality parameter sets that shape each
// campaign body. Defaults are calibrated to the published shape of 2010
// TeraGrid usage (job mix, widths, runtimes) at the platform's reduced
// scale; every experiment can override them. Arrival rates are not here:
// each archetype has one, ArchetypeSpec::per_week.
#pragma once

#include "core/modality.hpp"
#include "des/time.hpp"

namespace tg {

/// Capacity batch users: the bread-and-butter modality.
struct CapacityParams {
  int jobs_per_campaign_min = 1;
  int jobs_per_campaign_max = 8;
  int cores_min = 8;
  int cores_max = 512;
  double pow2_prob = 0.6;  ///< snap widths to powers of two
  double runtime_mean_hours = 4.0;
  double runtime_cv = 1.4;
  Duration think_mean = kHour;  ///< gap between jobs in a campaign
  double fail_prob = 0.03;
  double kill_prob = 0.04;  ///< under-requested walltime
};

/// Capability users: hero runs at half a machine and above.
struct CapabilityParams {
  double machine_fraction_min = 0.5;
  double machine_fraction_max = 1.0;
  double runtime_mean_hours = 8.0;
  double runtime_cv = 0.8;
  double fail_prob = 0.05;
  double kill_prob = 0.05;
};

/// Gateway end users: portal sessions that fan small jobs through a
/// community account. These users are *labels*, not TeraGrid accounts.
struct GatewayUserParams {
  int jobs_per_session_min = 1;
  int jobs_per_session_max = 10;
  int nodes_min = 1;
  int nodes_max = 2;
  double runtime_mean_hours = 0.4;
  double runtime_cv = 1.0;
  double fail_prob = 0.05;
};

/// Workflow/ensemble users.
struct WorkflowParams {
  int width_min = 10;
  int width_max = 120;
  int member_nodes_min = 1;
  int member_nodes_max = 4;
  double member_runtime_mean_hours = 1.0;
  double member_runtime_cv = 0.8;
  /// Probability a campaign uses the (tagged) workflow engine; otherwise
  /// the user scripts a manual burst with no tags.
  double engine_prob = 0.5;
  /// Probability an engine campaign is a fan-out/fan-in DAG (vs flat
  /// ensemble); fan DAGs ship data between stages.
  double fan_prob = 0.3;
  double stage_output_gb = 5.0;
  double fail_prob = 0.04;
};

/// Tightly-coupled distributed users (co-allocated multi-site MPI).
struct CoupledParams {
  int sites = 2;
  int nodes_per_site_min = 8;
  int nodes_per_site_max = 32;
  double runtime_mean_hours = 4.0;
  double runtime_cv = 0.5;
};

/// Remote interactive / visualization users.
struct VizParams {
  double session_hours_min = 1.0;
  double session_hours_max = 4.0;
  int nodes_min = 1;
  int nodes_max = 4;
  /// Probability a session is preceded by a small batch pre-processing job.
  double prejob_prob = 0.3;
};

/// Data-centric users: movers and archivers.
struct DataParams {
  double bytes_alpha = 1.2;  ///< bounded-Pareto tail
  double bytes_min = 1e10;   ///< 10 GB
  double bytes_max = 2e13;   ///< 20 TB
  /// Probability a transfer is followed by a small analysis job.
  double analysis_prob = 0.25;
};

/// Exploratory / porting users.
struct ExploratoryParams {
  int jobs_per_burst_min = 1;
  int jobs_per_burst_max = 5;
  double runtime_mean_hours = 0.15;
  double runtime_cv = 1.0;
  double fail_prob = 0.30;
};

struct ArchetypeParams {
  CapacityParams capacity;
  CapabilityParams capability;
  GatewayUserParams gateway;
  WorkflowParams workflow;
  CoupledParams coupled;
  VizParams viz;
  DataParams data;
  ExploratoryParams exploratory;
};

}  // namespace tg
