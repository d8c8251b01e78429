// The "annual report" generator: everything the TeraGrid published about a
// reporting period, regenerated from the central database — platform
// inventory, the modality table, per-resource delivery and utilization,
// usage by field of science, gateway statistics, and WAN data movement.
// This is the production artifact the paper's measurement programme feeds.
#pragma once

#include <string>

#include "accounting/usage_db.hpp"
#include "infra/community.hpp"
#include "infra/platform.hpp"

namespace tg {

/// The reporting period. The modality section classifies with the default
/// features and thresholds.
struct AnnualReportOptions {
  SimTime from = 0;
  SimTime to = kYear;
};

/// Renders the full multi-section report as printable text.
[[nodiscard]] std::string generate_annual_report(
    const Platform& platform, const Community& community,
    const UsageDatabase& db, const AnnualReportOptions& options = {});

/// Per-resource delivery summary (one section of the report, also useful
/// on its own).
struct ResourceUsageRow {
  ResourceId resource;
  long jobs = 0;
  double nu = 0.0;
  double core_seconds = 0.0;
  double utilization = 0.0;  ///< over [from, to)
  double mean_wait_hours = 0.0;
};

[[nodiscard]] std::vector<ResourceUsageRow> per_resource_usage(
    const Platform& platform, const UsageDatabase& db, SimTime from,
    SimTime to);

/// NUs charged per field of science (via each record's project).
[[nodiscard]] std::vector<std::pair<FieldOfScience, double>> usage_by_field(
    const Community& community, const UsageDatabase& db, SimTime from,
    SimTime to);

}  // namespace tg
