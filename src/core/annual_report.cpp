#include "core/annual_report.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "core/report.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace tg {

std::vector<ResourceUsageRow> per_resource_usage(const Platform& platform,
                                                 const UsageDatabase& db,
                                                 SimTime from, SimTime to) {
  std::vector<ResourceUsageRow> rows;
  rows.reserve(platform.compute().size());
  std::map<ResourceId, std::size_t> index;
  for (const ComputeResource& res : platform.compute()) {
    index[res.id] = rows.size();
    ResourceUsageRow row;
    row.resource = res.id;
    rows.push_back(row);
  }
  std::vector<RunningStats> waits(rows.size());
  db.for_each<JobRecord>(from, to, [&](const JobRecord& r) {
    const auto it = index.find(r.resource);
    if (it == index.end()) return;
    ResourceUsageRow& row = rows[it->second];
    ++row.jobs;
    row.nu += r.charged_nu;
    row.core_seconds += to_seconds(r.runtime()) * r.width_cores();
    waits[it->second].add(to_hours(r.wait()));
  });
  const double span = to_seconds(to - from);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ComputeResource& res = platform.compute()[i];
    rows[i].utilization =
        span > 0 ? rows[i].core_seconds / (res.total_cores() * span) : 0.0;
    rows[i].mean_wait_hours = waits[i].mean();
  }
  return rows;
}

std::vector<std::pair<FieldOfScience, double>> usage_by_field(
    const Community& community, const UsageDatabase& db, SimTime from,
    SimTime to) {
  std::map<FieldOfScience, double> by_field;
  db.for_each<JobRecord>(from, to, [&](const JobRecord& r) {
    const auto idx = static_cast<std::size_t>(r.project.value());
    if (idx >= community.projects().size()) return;
    by_field[community.projects()[idx].field] += r.charged_nu;
  });
  std::vector<std::pair<FieldOfScience, double>> out(by_field.begin(),
                                                     by_field.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

std::string generate_annual_report(const Platform& platform,
                                   const Community& community,
                                   const UsageDatabase& db,
                                   const AnnualReportOptions& options) {
  std::ostringstream os;
  const SimTime from = options.from;
  const SimTime to = options.to;

  os << "==================================================================\n"
     << " CYBERINFRASTRUCTURE USAGE REPORT  (" << format_duration(to - from)
     << " period)\n"
     << "==================================================================\n\n";

  // --- platform inventory ---
  os << "1. Platform\n-----------\n"
     << platform.sites().size() << " resource-provider sites, "
     << platform.compute().size() << " compute systems ("
     << platform.total_cores() << " cores), " << platform.storage().size()
     << " storage systems, " << platform.links().size() << " WAN links\n\n";

  // --- headline numbers ---
  double total_nu = 0.0;
  long total_jobs = 0;
  std::set<UserId> active_users;
  db.for_each<JobRecord>(from, to, [&](const JobRecord& r) {
    total_nu += r.charged_nu;
    ++total_jobs;
    active_users.insert(r.user);
  });
  os << "2. Headline usage\n-----------------\n"
     << "jobs completed:    " << total_jobs << "\n"
     << "NUs charged:       " << si_format(total_nu) << "\n"
     << "active accounts:   " << active_users.size() << "\n"
     << "gateway end users: " << count_gateway_end_users(db, from, to)
     << " (from attribute records)\n\n";

  // --- modalities ---
  const RuleClassifier classifier(options.thresholds);
  const ModalityReport modality =
      ModalityReport::build(platform, db, classifier, from, to,
                            options.features);
  os << "3. Usage modalities\n-------------------\n"
     << modality.to_table() << "\n";

  // --- per resource ---
  os << "4. Resources\n------------\n";
  Table res_table({"Resource", "Site", "Jobs", "NUs (M)", "Utilization",
                   "Mean wait (h)"});
  for (const ResourceUsageRow& row :
       per_resource_usage(platform, db, from, to)) {
    const ComputeResource& res = platform.compute_at(row.resource);
    res_table.add_row({res.name, platform.site(res.site).name,
                       Table::num(static_cast<std::int64_t>(row.jobs)),
                       Table::num(row.nu / 1e6, 3),
                       Table::pct(row.utilization),
                       Table::num(row.mean_wait_hours, 2)});
  }
  os << res_table << "\n";

  // --- fields of science ---
  os << "5. Fields of science (by charge)\n"
     << "--------------------------------\n";
  Table field_table({"Field", "NUs (M)", "Share"});
  for (const auto& [field, nu] : usage_by_field(community, db, from, to)) {
    field_table.add_row({to_string(field), Table::num(nu / 1e6, 3),
                         Table::pct(total_nu > 0 ? nu / total_nu : 0.0)});
  }
  os << field_table << "\n";

  // --- data movement ---
  if (options.include_transfers) {
    os << "6. WAN data movement\n--------------------\n";
    double total_bytes = 0.0;
    std::map<std::pair<SiteId, SiteId>, double> by_pair;
    long transfers = 0;
    db.for_each<TransferRecord>(from, to, [&](const TransferRecord& r) {
      ++transfers;
      total_bytes += r.bytes;
      by_pair[{r.src, r.dst}] += r.bytes;
    });
    os << transfers << " transfers, " << si_format(total_bytes)
       << "B moved\n";
    std::vector<std::pair<double, std::pair<SiteId, SiteId>>> top;
    for (const auto& [pair, bytes] : by_pair) top.push_back({bytes, pair});
    std::sort(top.rbegin(), top.rend());
    Table pair_table({"Route", "Bytes", "Share"});
    for (std::size_t i = 0; i < std::min<std::size_t>(5, top.size()); ++i) {
      const auto& [bytes, pair] = top[i];
      pair_table.add_row(
          {platform.site(pair.first).name + " -> " +
               platform.site(pair.second).name,
           si_format(bytes) + "B",
           Table::pct(total_bytes > 0 ? bytes / total_bytes : 0.0)});
    }
    if (!top.empty()) os << pair_table;
    os << "\n";
  }
  return os.str();
}

}  // namespace tg
