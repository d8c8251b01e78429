// Randomized tie-break replays of a full Scenario (--mc-random).
//
// Exhaustive exploration only scales to hand-built micro-scenarios; this is
// the complementary spot-check for real experiment configs: run the same
// ScenarioConfig once canonically and N more times with uniformly random
// tie-breaking at every choice point, requiring each replay to (a) pass the
// full invariant audit and (b) produce terminal records whose canonical
// hash matches the canonical run — same-tick scheduling races must not be
// able to change what the simulated TeraGrid ultimately accounted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>

#include "workload/scenario.hpp"

namespace tg::mc {

/// Runs the canonical replay plus `samples` random-tie-break replays of
/// `config` (with tracing off), printing one line per replay to `os`.
/// Returns true iff every replay passed the audit and matched the
/// canonical terminal-record hash. `seed` derives the per-sample tie-break
/// streams; it is independent of the scenario's own seed.
[[nodiscard]] bool run_random_tiebreak_check(const ScenarioConfig& config,
                                             std::size_t samples,
                                             std::uint64_t seed,
                                             std::ostream& os);

}  // namespace tg::mc
