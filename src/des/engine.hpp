// The discrete-event simulation engine.
//
// Events are processed in one canonical total order: (time, priority,
// partition, local sequence). Ties at equal time break by priority (lower
// runs first), then by partition id (the coordinator, partition 0, before
// any site), then by scheduling order within the partition — so a given
// seed always produces an identical trace (DESIGN.md §5.7).
//
// Partitioning is *logical* and fixed by the caller (one partition per
// site plus coordinator 0 for cross-site machinery). It does not change
// how events execute — one loop pops them all from one heap — but it fixes
// tie order, and each event's EventClass plus serialize_partition() are
// the synchronization facts the model checker's independence relation
// reads (DESIGN.md §5.8). The engine enforces what they promise: while a
// kLocal event of an unserialized partition fires, scheduling or
// cancelling on any other partition throws InvariantError.
//
// Internals (see DESIGN.md "DES event core"): callbacks live in a chunked
// slab of recycled slots addressed by generation-tagged EventId handles. A
// 4-ary implicit heap orders 24-byte POD keys only, cancel() is an O(1)
// tombstone flag checked when the heap entry surfaces, and the common
// schedule path does zero heap allocations (EventCallback stores small
// captures inline, constructed directly in the slab slot). Chunks never
// move, so a firing callback is invoked in place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "des/callback.hpp"
#include "des/time.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace tg {

/// Handle for cancelling a scheduled event. Encodes
/// ((partition << 26 | slot) << 32 | generation) into the engine's slab; a
/// slot's generation is bumped on every reuse, so stale handles (already
/// fired or cancelled) are recognized and rejected.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// Priority classes: completions run before submissions at the same tick so
/// freed resources are visible to arriving work, and deferred scheduling
/// passes (kReplan) run after every state change of the tick has landed —
/// that ordering is what lets a wave of same-tick completions coalesce into
/// one replan instead of N.
enum class EventPriority : int {
  kCompletion = 0,
  kDefault = 10,
  kSubmission = 20,
  kReplan = 30,
  kReporting = 100,
};

/// Synchronization class of an event: what the model checker may assume
/// about its effects (DESIGN.md §5.7).
enum class EventClass : std::uint8_t {
  /// May influence other partitions (submit across sites, start WAN flows,
  /// touch coordinator state). This is the safe default.
  kBarrier = 0,
  /// Partition-local: while its partition is unserialized, the event
  /// schedules and cancels only on its own partition (the engine's
  /// locality check), so two such events on different partitions commute.
  /// The scheduler marks completions, wakeups, requeues and replan passes
  /// kLocal only when their effects cannot leave the partition.
  kLocal = 1,
};

/// Where an event lives in the partitioned engine and how it
/// synchronizes. Defaults — partition of the currently-firing event (or
/// the coordinator outside of events), kBarrier — are always safe.
struct EventBinding {
  std::uint32_t shard = 0;
  EventClass cls = EventClass::kBarrier;
};

/// Observer/controller for tie-set resolution — the model-checking hook
/// (DESIGN.md §5.8). When installed, every step first collects the *tie
/// set*: all armed events sharing the minimal (time, priority) across
/// every partition. If the set has >= 2 members the hook picks which fires
/// first; the engine then fires exactly that event and re-collects, so a
/// pick vector addresses every reachable interleaving of same-key events.
/// The hook also observes each fired event (tied or forced), which is what
/// trace signatures hash.
class ChoiceHook {
 public:
  /// One armed event inside a tie set, identified by its canonical key
  /// plus the synchronization facts the independence relation needs.
  struct Candidate {
    SimTime time = 0;
    std::int32_t priority = 0;
    std::uint32_t shard = 0;
    std::uint64_t seq = 0;
    EventClass cls = EventClass::kBarrier;
    bool serialized = false;  ///< partition was serialized at choice time

    [[nodiscard]] bool same_event(const Candidate& o) const {
      return shard == o.shard && seq == o.seq && time == o.time &&
             priority == o.priority;
    }
  };

  virtual ~ChoiceHook() = default;

  /// Called when >= 2 armed events share the minimal (time, priority).
  /// `tie` is sorted by (shard, seq); index 0 is what the unhooked engine
  /// would fire. Returns the index of the event to fire first; the rest
  /// stay pending and (if still tied) reappear in the next tie set.
  virtual std::size_t choose(const std::vector<Candidate>& tie) = 0;

  /// Called for every event the engine fires, immediately before its
  /// callback runs, in execution order.
  virtual void on_fire(const Candidate& fired) { (void)fired; }
};

class Engine {
 public:
  /// Partition id fits in 6 EventId bits.
  static constexpr std::uint32_t kMaxPartitions = 64;

  /// Lightweight event-core counters, cheap enough to maintain always;
  /// bind_metrics() hands the cells to a MetricsRegistry by reference.
  struct Stats {
    obs::Counter scheduled;   ///< schedule_at/schedule_in calls
    obs::Counter cancelled;   ///< successful cancel() calls
    obs::Counter fired;       ///< callbacks actually run
    obs::Counter tombstones;  ///< cancelled entries popped off the heap
    obs::Gauge heap_high_water;  ///< max event-heap depth, tombstones included

    /// Fraction of heap pops that were dead entries (cancellation churn).
    [[nodiscard]] double tombstone_ratio() const {
      const std::uint64_t pops = fired + tombstones;
      return pops == 0 ? 0.0
                       : static_cast<double>(tombstones.value()) /
                             static_cast<double>(pops);
    }
  };

  Engine() { parts_.resize(1); }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulation time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `f`, any void() callable, at absolute time `t` (must be
  /// >= now()). The callback is constructed directly in its slab slot.
  template <class F>
  EventId schedule_at(SimTime t, F&& f,
                      EventPriority priority = EventPriority::kDefault) {
    return schedule_at(t, std::forward<F>(f), priority, default_binding());
  }

  template <class F>
  EventId schedule_at(SimTime t, F&& f, EventPriority priority,
                      EventBinding binding) {
    using D = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, D&>,
                  "an event callback is a void() callable");
    if constexpr (std::is_constructible_v<bool, const D&>) {
      TG_REQUIRE(static_cast<bool>(f), "event callback must not be null");
    }
    const std::uint32_t slot = acquire_slot(t, binding.shard);
    slot_ref(slot).cb.emplace(std::forward<F>(f));
    return commit_slot(slot, t, priority, binding);
  }

  /// Schedules `f` after `dt` ticks (must be >= 0).
  template <class F>
  EventId schedule_in(Duration dt, F&& f,
                      EventPriority priority = EventPriority::kDefault) {
    return schedule_in(dt, std::forward<F>(f), priority, default_binding());
  }

  template <class F>
  EventId schedule_in(Duration dt, F&& f, EventPriority priority,
                      EventBinding binding) {
    TG_REQUIRE(dt >= 0, "negative delay " << dt);
    return schedule_at(now() + dt, std::forward<F>(f), priority, binding);
  }

  /// Cancels a pending event in O(1). Returns false if already fired or
  /// cancelled. The callback (and any heap block behind its captures) is
  /// destroyed immediately; the heap entry is reclaimed when it surfaces.
  bool cancel(EventId id);

  /// Runs until the queue drains or stop() is called. Returns #events
  /// fired.
  std::size_t run();

  /// Processes every event with time <= `t`, then advances the clock to
  /// `t`.
  std::size_t run_until(SimTime t);

  /// Requests the current run()/run_until() to return after the in-flight
  /// callback completes.
  void stop() { stopped_ = true; }

  /// True while a callback is being run by the event loop. Components use
  /// this to pick between synchronous work (direct API calls, e.g. from
  /// tests, expect immediate effects) and deferring to a same-tick event
  /// (so same-timestamp triggers batch into one pass).
  [[nodiscard]] bool in_event() const { return in_event_; }

  [[nodiscard]] std::size_t pending() const { return live_; }
  [[nodiscard]] std::uint64_t events_processed() const {
    return stats_.fired.value();
  }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Registers the event-core counters with `registry` under "engine.".
  /// The cells live in this Engine; the registry must not outlive it.
  void bind_metrics(obs::MetricsRegistry& registry) const;

  // -- Partitioning (DESIGN.md §5.7) --------------------------------------

  /// Splits the engine into `count` logical partitions (1..kMaxPartitions).
  /// Must be called on a pristine engine (nothing scheduled yet): the
  /// partition id is part of the canonical event order, so it cannot
  /// change mid-run.
  void configure_partitions(std::uint32_t count);
  [[nodiscard]] std::uint32_t partitions() const {
    return static_cast<std::uint32_t>(parts_.size());
  }

  /// Marks/unmarks partition `shard` as serialized (calls nest; each `on`
  /// needs a matching `off`). A serialized partition's kLocal events are
  /// exempt from the locality check and do not commute with other
  /// partitions' events in the model checker's independence relation.
  /// Components use this when previously-local event streams gain feedback
  /// coupling — e.g. a scheduler whose queue holds a workflow or
  /// co-allocated job, whose start notifies the coordinator. The canonical
  /// event order is unaffected.
  void serialize_partition(std::uint32_t shard, bool on);

  /// Installs (nullptr clears) the tie-set hook. The caller keeps
  /// ownership; the hook must outlive the run.
  void set_choice_hook(ChoiceHook* hook);
  [[nodiscard]] ChoiceHook* choice_hook() const { return choice_hook_; }

 private:
  /// Slab cell backing one scheduled event. `armed` is the tombstone flag:
  /// cleared by cancel() (and on fire), checked when the heap entry pops.
  struct Slot {
    EventCallback cb;
    std::uint32_t generation = 1;
    bool armed = false;
    EventClass cls = EventClass::kBarrier;
  };

  /// Slots live in fixed-size chunks so their addresses are stable even
  /// while a callback running in place schedules new events.
  static constexpr std::uint32_t kChunkShift = 9;  // 512 slots per chunk
  static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;

  /// EventId layout: [partition:6 | slot:26 | generation:32].
  static constexpr std::uint32_t kSlotBits = 26;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;

  /// Heap entry ordered by the canonical key (time, priority, partition,
  /// seq); a 24-byte POD, so the callback never moves during sift.
  /// `order` packs partition << kSeqBits | seq, so one integer compare
  /// breaks ties by partition, then FIFO within the partition.
  struct Item {
    SimTime time;
    std::uint64_t order;
    std::uint32_t slot;
    std::int32_t priority;
  };
  static constexpr std::uint32_t kSeqBits = 58;
  static_assert(kMaxPartitions <= (std::uint64_t{1} << (64 - kSeqBits)));
  static bool before(const Item& a, const Item& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.priority != b.priority) return a.priority < b.priority;
    return a.order < b.order;
  }
  static constexpr std::uint32_t shard_of(const Item& it) {
    return static_cast<std::uint32_t>(it.order >> kSeqBits);
  }
  static constexpr std::uint64_t seq_of(const Item& it) {
    return it.order & ((std::uint64_t{1} << kSeqBits) - 1);
  }

  /// Per-partition state: the local sequence counter that fixes FIFO order
  /// within the partition, and the serialize_partition() nesting count.
  struct Partition {
    std::uint64_t next_seq = 1;
    int serialize_count = 0;
  };

  static constexpr std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32) & kSlotMask;
  }
  static constexpr std::uint32_t shard_of(EventId id) {
    return static_cast<std::uint32_t>(id >> (32 + kSlotBits));
  }
  static constexpr std::uint32_t generation_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }
  static constexpr EventId make_id(std::uint32_t shard, std::uint32_t slot,
                                   std::uint32_t generation) {
    return ((static_cast<EventId>(shard) << kSlotBits |
             static_cast<EventId>(slot))
            << 32) |
           generation;
  }

  Slot& slot_ref(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }

  /// Shard/class applied when a schedule call names no binding: the firing
  /// partition (so an event's unannotated children stay with it) and the
  /// always-safe kBarrier class.
  [[nodiscard]] EventBinding default_binding() const {
    return EventBinding{fire_shard_, EventClass::kBarrier};
  }

  /// Throws InvariantError if the firing event is a kLocal event of an
  /// unserialized partition and `shard` is another partition.
  void check_locality(std::uint32_t shard, const char* op) const;

  /// Validates `t`, the target partition and locality, then pops a
  /// recycled slot (or grows the slab).
  std::uint32_t acquire_slot(SimTime t, std::uint32_t shard);
  /// Arms the slot, pushes its heap entry, and mints the handle.
  EventId commit_slot(std::uint32_t slot, SimTime t, EventPriority priority,
                      EventBinding binding);

  /// Fires the minimal live event if its time is <= `bound`; returns
  /// false when none qualifies.
  bool step(SimTime bound);
  /// Pops dead entries so the heap (if non-empty) tops a live event.
  void skim();
  /// Returns a slot to the free list, invalidating outstanding handles.
  void release(std::uint32_t slot);

  // 4-ary implicit min-heap with hole sifting: half the depth of a binary
  // heap and one cache line per visited node, which is where the pop path
  // of a million-event run spends its time.
  void heap_push(const Item& item);
  /// Removes the entry at `pos` (0 pops the minimum; the choice hook fires
  /// non-top tie members): a bottom-up hole walk, then a sift-up from the
  /// leaf, which may carry the former tail above `pos`.
  Item heap_remove(std::size_t pos);

  /// A tie-set member plus where its heap entry lives (valid only until
  /// the next heap mutation).
  struct TieEntry {
    ChoiceHook::Candidate cand;
    std::size_t pos;
  };
  /// Fills tie_entries_/tie_view_ with every armed entry matching the
  /// heap top's (time, priority), sorted by (shard, seq). Equal-key entries
  /// form a connected subtree at the heap's top, so the scan is
  /// O(tie set), not O(heap).
  void collect_tie_set();

  std::vector<Item> heap_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slab_size_ = 0;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Partition> parts_;
  std::size_t live_ = 0;
  SimTime now_ = 0;
  Stats stats_;
  bool stopped_ = false;
  bool in_event_ = false;  ///< a callback is running
  /// The firing event's partition (0 outside events) and whether it is a
  /// kLocal event of a partition unserialized when it fired — the state
  /// check_locality() reads.
  std::uint32_t fire_shard_ = 0;
  bool fire_local_ = false;
  ChoiceHook* choice_hook_ = nullptr;  ///< null => canonical order, no cost
  std::vector<TieEntry> tie_entries_;            ///< tie-set scratch
  std::vector<ChoiceHook::Candidate> tie_view_;  ///< what choose() sees
  std::vector<std::size_t> tie_walk_;            ///< subtree-walk scratch
};

}  // namespace tg
