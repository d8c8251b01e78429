#include "sched/profile.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace tg {

Profile::Profile(SimTime now, int free_nodes)
    : now_(now), capacity_(free_nodes) {
  TG_REQUIRE(free_nodes >= 0, "negative capacity");
}

void Profile::reset(SimTime now, int free_nodes) {
  TG_REQUIRE(free_nodes >= 0, "negative capacity");
  now_ = now;
  capacity_ = free_nodes;
  events_.clear();
  fence_period_ = 0;
}

void Profile::add_hold(SimTime release, int nodes) {
  if (nodes == 0) return;
  release = std::max(release, now_ + 1);
  if (events_.empty()) events_.push_back({now_, 0});
  TG_CHECK(events_.front().time == now_ && release >= events_.back().time,
           "add_hold out of order or after a subtract");
  events_.front().delta -= nodes;
  if (events_.back().time == release) {
    events_.back().delta += nodes;
  } else {
    events_.push_back({release, nodes});
  }
}

void Profile::subtract(SimTime from, SimTime to, int nodes) {
  if (nodes == 0 || to <= from) return;
  from = std::max(from, now_);
  if (to <= from) return;
  apply(from, -nodes);
  apply(to, nodes);
}

void Profile::apply(SimTime t, int delta) {
  const auto it = std::lower_bound(
      events_.begin(), events_.end(), t,
      [](const Event& e, SimTime at) { return e.time < at; });
  if (it != events_.end() && it->time == t) {
    it->delta += delta;  // zero-sum entries are harmless in the sweep
    return;
  }
  events_.insert(it, Event{t, delta});
}

void Profile::set_fence_period(Duration period) {
  TG_REQUIRE(period >= 0, "negative fence period");
  fence_period_ = period;
}

int Profile::free_at(SimTime t) const {
  int free = capacity_;
  for (const Event& e : events_) {
    if (e.time > t) break;
    free += e.delta;
  }
  return free;
}

SimTime Profile::earliest_fit(int nodes, Duration duration,
                              SimTime earliest) const {
  TG_REQUIRE(nodes >= 0 && duration >= 0, "bad fit query");
  earliest = std::max(earliest, now_);
  if (nodes > capacity_) return -1;
  // Every window between consecutive fences is one period long; a longer
  // job straddles a fence wherever it starts.
  if (fence_period_ > 0 && duration > fence_period_) return -1;

  // Single forward sweep over the merged (delta breakpoints, fences) event
  // stream, tracking the earliest candidate start `s` of a
  // continuously-feasible run. O(B + F).
  SimTime s = -1;
  int free = capacity_;
  const auto note_feasible = [&](SimTime at) {
    if (free >= nodes) {
      if (s < 0) s = std::max(at, earliest);
    } else {
      s = -1;
    }
  };
  note_feasible(now_);

  auto d = events_.begin();
  // Next fence strictly after `earliest`; advanced analytically, so the
  // fence stream has no horizon (-1 = none).
  SimTime fence =
      fence_period_ > 0 ? (earliest / fence_period_ + 1) * fence_period_ : -1;
  for (;;) {
    const bool have_delta = d != events_.end();
    if (!have_delta && fence < 0) break;
    const bool take_delta = have_delta && (fence < 0 || d->time <= fence);
    const SimTime t = take_delta ? d->time : fence;
    // The run [s, t) is feasible; done if the job fits before this event.
    if (s >= 0 && s + duration <= t) return s;
    if (take_delta) {
      // Times are unique, so one delta per step.
      free += d->delta;
      ++d;
    }
    if (fence == t) {
      // A candidate run may not straddle a fence; restart at it.
      if (s >= 0 && s < t) s = -1;
      fence += fence_period_;
    }
    note_feasible(t);
    if (!take_delta && d == events_.end()) {
      // Only fences remain and the free count is `capacity_` forever: this
      // fence opens a full period, which fits `duration` (checked up
      // front), so the candidate set here is final.
      return s;
    }
  }
  // Tail region: free == capacity_ >= nodes forever, no fences.
  if (s < 0) s = earliest;
  return s;
}

bool Profile::fits_at(SimTime t, int nodes, Duration duration) const {
  TG_REQUIRE(nodes >= 0 && duration >= 0, "bad fit query");
  t = std::max(t, now_);
  if (nodes > capacity_) return false;
  if (duration > 0) {
    // No fence may lie strictly inside (t, t + duration).
    if (fence_period_ > 0 &&
        (t / fence_period_ + 1) * fence_period_ < t + duration) {
      return false;
    }
  }
  int free = capacity_;
  auto d = events_.begin();
  for (; d != events_.end() && d->time <= t; ++d) free += d->delta;
  if (free < nodes) return false;
  for (; d != events_.end() && d->time < t + duration; ++d) {
    free += d->delta;
    if (free < nodes) return false;
  }
  return true;
}

}  // namespace tg
