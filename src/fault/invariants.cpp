#include "fault/invariants.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <unordered_map>
#include <vector>

namespace tg {

namespace {

/// Relative comparison for accumulated floating-point quantities.
[[nodiscard]] bool close(double a, double b) {
  const double scale = std::max({std::abs(a), std::abs(b), 1.0});
  return std::abs(a - b) <= 1e-9 * scale;
}

class Auditor {
 public:
  explicit Auditor(InvariantReport& report) : report_(report) {}

  template <class... Parts>
  void expect(bool condition, const Parts&... parts) {
    ++report_.checks;
    if (condition) return;
    ++violation_count_;
    if (violation_count_ == kMaxViolations + 1) {
      report_.violations.push_back("... further violations suppressed");
      return;
    }
    if (violation_count_ > kMaxViolations) return;
    std::ostringstream os;
    (os << ... << parts);
    report_.violations.push_back(os.str());
  }

 private:
  InvariantReport& report_;
  std::size_t violation_count_ = 0;
};

}  // namespace

std::string InvariantReport::to_string() const {
  if (ok()) {
    std::ostringstream os;
    os << "OK (" << checks << " checks)";
    return os.str();
  }
  std::ostringstream os;
  os << violations.size() << " invariant violation(s):";
  for (const std::string& v : violations) os << "\n  " << v;
  return os.str();
}

InvariantReport check_invariants(const Platform& platform,
                                 const UsageDatabase& db,
                                 const AllocationLedger* ledger,
                                 const Community* community,
                                 const SchedulerPool* pool,
                                 const ChargePolicy& policy,
                                 AuditPhase phase) {
  InvariantReport report;
  Auditor audit(report);

  // Records are read through the append-order visitor, so the audit works
  // on every storage mode; `i` counts records to name them by row.
  std::size_t i = 0;

  // --- 1+2: record sanity and stream monotonicity ---------------------------
  SimTime prev_end = 0;
  db.for_each<JobRecord>([&](const JobRecord& r) {
    audit.expect(r.submit_time <= r.start_time && r.start_time <= r.end_time,
                 "job record ", i, " (job ", r.job.value(),
                 "): times out of order (submit=", r.submit_time,
                 " start=", r.start_time, " end=", r.end_time, ")");
    audit.expect(r.end_time >= prev_end, "job record ", i,
                 ": stream not end-time sorted (", r.end_time, " after ",
                 prev_end, ")");
    prev_end = std::max(prev_end, r.end_time);
    ++i;
  });
  prev_end = 0;
  i = 0;
  db.for_each<TransferRecord>([&](const TransferRecord& r) {
    audit.expect(r.submit_time <= r.end_time && r.bytes >= 0.0,
                 "transfer record ", i, ": bad times or negative bytes");
    audit.expect(r.end_time >= prev_end, "transfer record ", i,
                 ": stream not end-time sorted");
    prev_end = std::max(prev_end, r.end_time);
    ++i;
  });
  prev_end = 0;
  i = 0;
  db.for_each<SessionRecord>([&](const SessionRecord& r) {
    audit.expect(r.start_time <= r.end_time, "session record ", i,
                 ": start after end");
    audit.expect(r.end_time >= prev_end, "session record ", i,
                 ": stream not end-time sorted");
    prev_end = std::max(prev_end, r.end_time);
    ++i;
  });

  // --- 3: charge conservation ------------------------------------------------
  double sum_nu = 0.0;
  std::vector<double> project_nu;
  std::array<std::uint64_t, kDispositionCount> disposition_seen{};
  i = 0;
  db.for_each<JobRecord>([&](const JobRecord& r) {
    const std::size_t row = i++;
    ++disposition_seen[static_cast<std::size_t>(r.disposition)];
    sum_nu += r.charged_nu;
    audit.expect(r.charged_su >= 0.0 && r.charged_nu >= 0.0, "job record ",
                 row, ": negative charge");
    if (!r.resource.valid() || !platform.is_compute(r.resource)) {
      audit.expect(false, "job record ", row, ": unknown resource");
      return;
    }
    const ComputeResource& res = platform.compute_at(r.resource);
    audit.expect(close(r.charged_nu, r.charged_su * res.charge_factor),
                 "job record ", row, ": nu ", r.charged_nu, " != su ",
                 r.charged_su, " x factor ", res.charge_factor);
    const bool refunded = !policy.charge_lost_work &&
                          (r.disposition == Disposition::kRequeued ||
                           r.disposition == Disposition::kKilledByOutage);
    const double held_su = to_hours(r.end_time - r.start_time) *
                           static_cast<double>(r.nodes) *
                           static_cast<double>(res.cores_per_node);
    audit.expect(close(r.charged_su, refunded ? 0.0 : held_su), "job record ",
                 row, ": su ", r.charged_su, " != held node-hours ",
                 refunded ? 0.0 : held_su, " (", to_string(r.disposition),
                 ")");
    if (r.project.valid()) {
      const auto p = static_cast<std::size_t>(r.project.value());
      if (p >= project_nu.size()) project_nu.resize(p + 1, 0.0);
      project_nu[p] += r.charged_nu;
    }
  });
  audit.expect(close(sum_nu, db.total_nu()), "record NU sum ", sum_nu,
               " != database total ", db.total_nu());
  if (ledger != nullptr) {
    audit.expect(close(sum_nu, ledger->total_charged()), "record NU sum ",
                 sum_nu, " != ledger total ", ledger->total_charged());
    if (community != nullptr) {
      for (const Project& p : community->projects()) {
        const auto idx = static_cast<std::size_t>(p.id.value());
        const double recorded = idx < project_nu.size() ? project_nu[idx] : 0.0;
        audit.expect(ledger->charged(p.id) >= 0.0, "project ", p.name,
                     ": negative ledger charge");
        audit.expect(close(recorded, ledger->charged(p.id)), "project ",
                     p.name, ": record NU ", recorded, " != ledger charge ",
                     ledger->charged(p.id));
      }
    }
  }

  // --- 4: disposition lifecycle ----------------------------------------------
  for (std::size_t d = 0; d < kDispositionCount; ++d) {
    audit.expect(
        disposition_seen[d] == db.disposition_count(static_cast<Disposition>(d)),
        "disposition counter mismatch for ",
        to_string(static_cast<Disposition>(d)), ": stream has ",
        disposition_seen[d], ", counter says ",
        db.disposition_count(static_cast<Disposition>(d)));
  }
  {
    std::unordered_map<std::int64_t, std::size_t> last_row;
    last_row.reserve(db.job_count());
    i = 0;
    db.for_each<JobRecord>(
        [&](const JobRecord& r) { last_row[r.job.value()] = i++; });
    i = 0;
    db.for_each<JobRecord>([&](const JobRecord& r) {
      const bool last = last_row[r.job.value()] == i++;
      if (last) {
        // Mid-run, a job's newest record may be kRequeued: its next
        // attempt simply has not ended yet.
        audit.expect(phase == AuditPhase::kMidRun ||
                         is_terminal(r.disposition),
                     "job ", r.job.value(),
                     ": last record is non-terminal (",
                     to_string(r.disposition), ")");
      } else {
        audit.expect(r.disposition == Disposition::kRequeued, "job ",
                     r.job.value(), ": non-final record has disposition ",
                     to_string(r.disposition), " (only requeued attempts may ",
                     "be followed by another attempt)");
      }
    });
  }

  // --- 5: capacity conservation ----------------------------------------------
  {
    // Sweep each resource's (start, +nodes)/(end, -nodes) deltas; releases
    // sort before acquisitions at equal times (a node freed at t can be
    // reused at t).
    struct Delta {
      SimTime t;
      int order;  // 0 = release, 1 = acquire
      int nodes;
    };
    std::unordered_map<std::int32_t, std::vector<Delta>> by_resource;
    db.for_each<JobRecord>([&](const JobRecord& r) {
      if (!r.resource.valid() || !platform.is_compute(r.resource)) return;
      if (r.end_time <= r.start_time) return;  // zero-length attempt
      auto& deltas = by_resource[r.resource.value()];
      deltas.push_back({r.start_time, 1, r.nodes});
      deltas.push_back({r.end_time, 0, -r.nodes});
    });
    for (auto& [id, deltas] : by_resource) {
      std::sort(deltas.begin(), deltas.end(), [](const Delta& a,
                                                 const Delta& b) {
        if (a.t != b.t) return a.t < b.t;
        return a.order < b.order;
      });
      const ComputeResource& res =
          platform.compute_at(ResourceId{id});
      int in_use = 0;
      int peak = 0;
      for (const Delta& d : deltas) {
        in_use += d.nodes;
        peak = std::max(peak, in_use);
      }
      audit.expect(peak <= res.nodes, "resource ", res.name,
                   ": records imply ", peak, " concurrent nodes on a ",
                   res.nodes, "-node machine");
      audit.expect(in_use == 0, "resource ", res.name,
                   ": node acquisitions and releases do not balance");
    }
  }

  // --- 6: quiescence ----------------------------------------------------------
  if (pool != nullptr && phase == AuditPhase::kFinal) {
    for (const ResourceId id : pool->resource_ids()) {
      const ResourceScheduler& sched = pool->at(id);
      const std::string& name = sched.resource().name;
      audit.expect(sched.running_jobs() == 0, "resource ", name, ": ",
                   sched.running_jobs(), " jobs still running after drain");
      audit.expect(sched.queue_length() == 0, "resource ", name, ": ",
                   sched.queue_length(), " jobs still queued after drain");
      audit.expect(sched.nodes_down() == 0, "resource ", name, ": ",
                   sched.nodes_down(), " nodes still down after drain");
      audit.expect(sched.free_nodes() == sched.resource().nodes, "resource ",
                   name, ": ", sched.free_nodes(), " of ",
                   sched.resource().nodes, " nodes free after drain");
    }
  } else if (pool != nullptr) {
    // --- 6': mid-run node accounting ----------------------------------------
    // Jobs may be running and nodes may be down, but the scheduler's node
    // bookkeeping must still balance: nothing negative, and down + free
    // never more than the machine (running/reserved jobs hold the rest).
    for (const ResourceId id : pool->resource_ids()) {
      const ResourceScheduler& sched = pool->at(id);
      const std::string& name = sched.resource().name;
      const int nodes = sched.resource().nodes;
      audit.expect(sched.free_nodes() >= 0, "resource ", name, ": ",
                   sched.free_nodes(), " free nodes (negative)");
      audit.expect(sched.nodes_down() >= 0 && sched.nodes_down() <= nodes,
                   "resource ", name, ": ", sched.nodes_down(),
                   " nodes down on a ", nodes, "-node machine");
      audit.expect(sched.free_nodes() + sched.nodes_down() <= nodes,
                   "resource ", name, ": free ", sched.free_nodes(),
                   " + down ", sched.nodes_down(), " exceeds ", nodes,
                   " nodes");
    }
  }

  return report;
}

}  // namespace tg
