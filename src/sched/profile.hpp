// Node-availability profile: piecewise-constant free-node count over future
// time, used by all scheduling policies to find feasible start times.
//
// Representation: a flat vector of (time, delta) breakpoints, sorted with
// unique times, instead of a std::map. A scheduler's base profile loads its
// running jobs with add_hold, whose releases arrive already sorted (ordered
// by planned end), so they append; every subtract (a reservation, an
// outage, a job started mid-pass) splices into the sorted vector in place.
// The sweep itself is a linear scan over contiguous memory — no per-node
// pointer chases, no tree rebalancing, no per-breakpoint allocation;
// reset() keeps the buffers for the next build.
#pragma once

#include <vector>

#include "des/time.hpp"

namespace tg {

class Profile {
 public:
  /// Creates a profile with `free_nodes` free everywhere from `now` on.
  Profile(SimTime now, int free_nodes);

  /// Empties the profile to `free_nodes` free everywhere from `now` on,
  /// with no fences, keeping its buffers for the next build.
  void reset(SimTime now, int free_nodes);

  /// Removes `nodes` of capacity during [from, to). `to` may be far future.
  void subtract(SimTime from, SimTime to, int nodes);

  /// Presorted bulk load: `nodes` are held from origin() until `release`,
  /// clamped to origin() + 1 (a hold always covers the current tick). All
  /// calls must come before any other subtract, in nondecreasing `release`
  /// order, so each release appends.
  void add_hold(SimTime release, int nodes);

  /// Declares a fence at every positive multiple of `period`: no job
  /// interval may straddle one (periodic full-machine drains). Fences are
  /// handled analytically by the sweeps — never materialized — so the
  /// stream extends arbitrarily far into the future: a plan pushed out by
  /// deep backlog cannot cross a fence that a materialization horizon
  /// would have hidden. Pass 0 to clear.
  void set_fence_period(Duration period);

  /// Free nodes at instant `t` (t >= now).
  [[nodiscard]] int free_at(SimTime t) const;

  /// Earliest start >= `earliest` at which `nodes` are free for the whole
  /// interval [s, s+duration) and no fence lies strictly inside it.
  /// Returns -1 if no feasible start exists: `nodes` exceeds the machine,
  /// or a fence period shorter than `duration` fences every window.
  [[nodiscard]] SimTime earliest_fit(int nodes, Duration duration,
                                     SimTime earliest) const;

  /// True iff `nodes` are free over the whole [t, t+duration) and no fence
  /// lies strictly inside it — equivalent to earliest_fit(..., t) == t but
  /// bails at the first shortage instead of sweeping the whole profile (on
  /// a saturated machine that is the first breakpoint).
  [[nodiscard]] bool fits_at(SimTime t, int nodes, Duration duration) const;

  [[nodiscard]] SimTime origin() const { return now_; }
  [[nodiscard]] int capacity() const { return capacity_; }

 private:
  /// Delta encoding: free(t) = capacity + sum of deltas at times <= t.
  struct Event {
    SimTime time;
    int delta;
  };

  /// Insertion keeping events_ sorted with unique times.
  void apply(SimTime t, int delta);

  SimTime now_;
  int capacity_;
  std::vector<Event> events_;
  Duration fence_period_ = 0;  // 0 = no fences
};

}  // namespace tg
