// Trace replay: drive a scheduler from an SWF trace instead of the
// synthetic generators — the standard way to validate scheduling policies
// against archived production workloads.
#pragma once

#include <vector>

#include "accounting/swf.hpp"
#include "des/engine.hpp"
#include "sched/scheduler.hpp"

namespace tg {

struct ReplayStats {
  std::size_t submitted = 0;
  std::size_t skipped = 0;
};

/// Schedules every trace job for submission at its recorded submit time.
/// Jobs wider than the machine run at full-machine width, and requested
/// walltimes above the machine limit are cut to it; jobs with a negative
/// submit time are skipped. Call before Engine::run(); the engine then
/// replays the trace.
ReplayStats replay_trace(Engine& engine, ResourceScheduler& scheduler,
                         const std::vector<SwfJob>& trace);

}  // namespace tg
