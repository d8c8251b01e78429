#include "meta/coalloc.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace tg {

CoAllocator::CoAllocator(Engine& engine, SchedulerPool& pool)
    : engine_(engine), pool_(pool) {}

SimTime CoAllocator::estimate_common_start(
    const CoAllocRequest& request) const {
  TG_REQUIRE(!request.members.empty(), "co-allocation needs members");
  SimTime t = engine_.now();
  for (const CoAllocMember& m : request.members) {
    t = std::max(t, pool_.at(m.resource).estimate_start(m.nodes,
                                                        request.walltime));
  }
  return t;
}

std::optional<CoAllocation> CoAllocator::co_allocate(
    const CoAllocRequest& request) {
  TG_REQUIRE(!request.members.empty(), "co-allocation needs members");
  TG_REQUIRE(request.walltime > 0 && request.actual_runtime > 0,
             "co-allocation needs positive durations");

  constexpr Duration kRetryStep = 30 * kMinute;
  constexpr int kAttempts = 200;
  SimTime attempt = estimate_common_start(request);
  for (int retry = 0; retry < kAttempts; ++retry) {
    std::vector<ReservationId> booked;
    booked.reserve(request.members.size());
    bool ok = true;
    for (const CoAllocMember& m : request.members) {
      const ReservationId r =
          pool_.at(m.resource).reserve(attempt, request.walltime, m.nodes);
      if (!r.valid()) {
        ok = false;
        break;
      }
      booked.push_back(r);
    }
    if (!ok) {
      // Roll back partial bookings and try a later window.
      for (std::size_t i = 0; i < booked.size(); ++i) {
        pool_.at(request.members[i].resource).cancel_reservation(booked[i]);
      }
      attempt += kRetryStep;
      continue;
    }

    CoAllocation result;
    result.start = attempt;
    result.reservations = booked;
    for (std::size_t i = 0; i < request.members.size(); ++i) {
      JobRequest jr;
      jr.user = request.user;
      jr.project = request.project;
      jr.nodes = request.members[i].nodes;
      jr.requested_walltime = request.walltime;
      jr.actual_runtime = request.actual_runtime;
      jr.coallocated = true;
      result.jobs.push_back(pool_.at(request.members[i].resource)
                                .attach_to_reservation(booked[i], std::move(jr)));
    }
    return result;
  }
  return std::nullopt;
}

}  // namespace tg
