// Simulation invariant harness.
//
// check_invariants() audits a finished (or drained) simulation from the
// outside: it reads only the accounting database, the ledger and public
// scheduler state — the same surfaces an operator could audit on the real
// TeraGrid — and verifies the conservation laws that fault injection is most
// likely to break. Runnable from unit tests and from experiment binaries
// (exp_common's --check-invariants flag).
//
// Invariant families:
//  1. Record sanity: submit <= start <= end for every job record; session
//     and transfer timestamps ordered.
//  2. Stream monotonicity: each record stream is sorted by end time (the
//     live Recorder appends in completion order).
//  3. Charge conservation: charges are non-negative, nu == su x the
//     machine's charge factor, su matches the attempt's held node-hours —
//     and outage-refunded attempts are charged zero under a refunding
//     policy. Sum of record NUs == database total == ledger total, and
//     per-project record sums match the ledger (no NU created or destroyed
//     between a job ending and the ledger debit).
//  4. Disposition lifecycle: every job's *last* record is terminal, only
//     kRequeued records may be followed by another attempt of the same
//     JobId, and the database's O(1) disposition counters match the stream.
//  5. Capacity conservation: per resource, the concurrent node usage implied
//     by record [start, end) intervals never exceeds the machine size —
//     outage/repair cycles must not double-allocate nodes.
//  6. Quiescence (when a pool is supplied; call after the drain): no queued
//     or running jobs, no nodes still down, all nodes free.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "accounting/charge.hpp"
#include "accounting/ledger.hpp"
#include "accounting/usage_db.hpp"
#include "infra/community.hpp"
#include "infra/platform.hpp"
#include "sched/pool.hpp"

namespace tg {

struct InvariantReport {
  /// Human-readable descriptions of every violated invariant (bounded: at
  /// most kMaxViolations are recorded, with a truncation marker).
  std::vector<std::string> violations;
  /// Number of individual checks evaluated (a sanity guard that the audit
  /// actually ran over real data).
  std::size_t checks = 0;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  /// "OK (N checks)" or a newline-joined violation list.
  [[nodiscard]] std::string to_string() const;
};

inline constexpr std::size_t kMaxViolations = 32;

/// When the audit runs relative to the simulation. Families 1-3 and 5 hold
/// at any quiescent point (record streams only ever contain *ended*
/// attempts); kMidRun relaxes the two families that assume a drained
/// simulation: a job's last record may still be kRequeued (its retry is
/// pending), and the pool check verifies node-accounting bounds
/// (0 <= free, 0 <= down, free + down <= nodes) instead of emptiness.
enum class AuditPhase {
  kFinal,   ///< after the drain: full six families
  kMidRun,  ///< at a quiescent mid-simulation point (e.g. --audit-every)
};

/// Audits database/ledger/scheduler state. `ledger`, `community` and `pool`
/// are optional; each unlocks the corresponding invariant family.
[[nodiscard]] InvariantReport check_invariants(
    const Platform& platform, const UsageDatabase& db,
    const AllocationLedger* ledger = nullptr,
    const Community* community = nullptr, const SchedulerPool* pool = nullptr,
    AuditPhase phase = AuditPhase::kFinal);

}  // namespace tg
