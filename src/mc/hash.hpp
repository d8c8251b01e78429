// Content hashing for the model checker (DESIGN.md §5.8): the canonical
// terminal-record hash (the cross-interleaving equivalence oracle) and the
// Foata-normal-form trace signature that names a run's Mazurkiewicz
// equivalence class.
#pragma once

#include <cstdint>
#include <vector>

#include "des/engine.hpp"

namespace tg {

class UsageDatabase;

namespace mc {

/// 64-bit finalizer (SplitMix64): the mixing primitive behind both hashes.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// True when reordering two tie-set members cannot change any outcome:
/// both are partition-local (kLocal, partition not serialized) on
/// *different* partitions, and the engine's locality check confines each
/// one's scheduling and cancelling to its own partition. This is the
/// sleep-set pruning relation. Walls, serialized locals, and same-partition
/// pairs are always dependent.
[[nodiscard]] bool independent(const ChoiceHook::Candidate& a,
                               const ChoiceHook::Candidate& b);

/// Order-insensitive content hash of the final record streams. Records are
/// hashed in a canonical sort order — jobs by (end_time, job, start_time),
/// transfers by (end_time, transfer), sessions by (end_time, user,
/// resource) — because interleaving two *independent* same-tick events is
/// allowed to swap their append order in the database while leaving every
/// record's content identical. Every field of every record participates,
/// so any divergence in times, charges, states or attributes changes the
/// value.
[[nodiscard]] std::uint64_t hash_terminal_records(const UsageDatabase& db);

/// Incremental Foata-normal-form signature over the fired-event sequence.
///
/// Each fired event gets a level: one past the max level among the events
/// it depends on (its partition's previous event and the last wall; a wall
/// depends on everything). Two executions that differ only by swapping
/// adjacent independent events assign identical levels to every event, and
/// the per-event hashes are combined commutatively (summed), so the final
/// value identifies the Mazurkiewicz trace — the explorer uses it to ask
/// "have I seen an equivalent interleaving, and did it produce the same
/// terminal records?".
class FoataSignature {
 public:
  /// Feed every fired event, in execution order (ChoiceHook::on_fire).
  void add(const ChoiceHook::Candidate& fired);

  [[nodiscard]] std::uint64_t value() const { return hash_; }
  [[nodiscard]] std::uint64_t events() const { return events_; }

  void reset() {
    level_.clear();
    wall_level_ = 0;
    hash_ = 0;
    events_ = 0;
  }

 private:
  std::vector<std::uint64_t> level_;  ///< last level per partition
  std::uint64_t wall_level_ = 0;     ///< level of the last wall-like event
  std::uint64_t hash_ = 0;
  std::uint64_t events_ = 0;
};

}  // namespace mc
}  // namespace tg
