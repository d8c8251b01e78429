// Cross-site co-allocation: simultaneous starts on multiple resources for
// one tightly-coupled distributed computation.
//
// The co-allocator searches for a common feasible start across all member
// resources and places paired advance reservations, then attaches the
// member jobs so they begin at the same instant — the mechanism TeraGrid
// used (via GUR/HARC-style reservation brokers) for multi-site MPI runs.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "des/engine.hpp"
#include "sched/pool.hpp"
#include "util/ids.hpp"

namespace tg {

struct CoAllocMember {
  ResourceId resource;
  int nodes = 1;
};

struct CoAllocRequest {
  UserId user;
  ProjectId project;
  std::vector<CoAllocMember> members;
  Duration walltime = kHour;
  Duration actual_runtime = kHour;
};

struct CoAllocation {
  SimTime start = 0;
  std::vector<ReservationId> reservations;
  std::vector<JobId> jobs;
};

class CoAllocator {
 public:
  CoAllocator(Engine& engine, SchedulerPool& pool);

  /// Finds the earliest common start >= now and books it, trying a window
  /// 30 minutes later after each failed booking. Returns nullopt only if
  /// none of 200 attempts books (practically never on a feasible request).
  std::optional<CoAllocation> co_allocate(const CoAllocRequest& request);

  /// Start-time estimate for the same request without booking (used to
  /// quantify the co-allocation wait penalty).
  [[nodiscard]] SimTime estimate_common_start(
      const CoAllocRequest& request) const;

 private:
  Engine& engine_;
  SchedulerPool& pool_;
};

}  // namespace tg
