#include "des/engine.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace tg {

void Engine::check_locality(std::uint32_t shard, const char* op) const {
  TG_CHECK(!fire_local_ || shard == fire_shard_,
           "a kLocal event of unserialized partition "
               << fire_shard_ << " may not " << op << " on partition "
               << shard);
}

std::uint32_t Engine::acquire_slot(SimTime t, std::uint32_t shard) {
  TG_REQUIRE(t >= now_, "cannot schedule in the past: t=" << t << " now="
                                                          << now_);
  TG_REQUIRE(shard < parts_.size(), "event binding names partition "
                                        << shard << " of " << parts_.size());
  check_locality(shard, "schedule");
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  TG_CHECK(slab_size_ < (1u << kSlotBits), "event slab exhausted");
  if ((slab_size_ >> kChunkShift) == chunks_.size()) {
    chunks_.push_back(std::make_unique<Slot[]>(std::size_t{1} << kChunkShift));
  }
  return slab_size_++;
}

EventId Engine::commit_slot(std::uint32_t slot, SimTime t,
                            EventPriority priority, EventBinding binding) {
  Slot& s = slot_ref(slot);
  s.armed = true;
  s.cls = binding.cls;
  const std::uint64_t seq = parts_[binding.shard].next_seq++;
  heap_push(Item{t, std::uint64_t{binding.shard} << kSeqBits | seq, slot,
                 static_cast<std::int32_t>(priority)});
  ++live_;
  stats_.scheduled.inc();
  stats_.heap_high_water.max_of(static_cast<double>(heap_.size()));
  return make_id(binding.shard, slot, s.generation);
}

bool Engine::cancel(EventId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot >= slab_size_) return false;
  Slot& s = slot_ref(slot);
  if (!s.armed || s.generation != generation_of(id)) return false;
  check_locality(shard_of(id), "cancel");
  // Tombstone: the heap entry stays and is reclaimed when it surfaces, but
  // the callback (and its captures) dies now.
  s.armed = false;
  s.cb.reset();
  --live_;
  stats_.cancelled.inc();
  return true;
}

void Engine::release(std::uint32_t slot) {
  Slot& s = slot_ref(slot);
  s.cb.reset();
  ++s.generation;  // invalidate any handle still pointing here
  free_slots_.push_back(slot);
}

void Engine::heap_push(const Item& item) {
  heap_.push_back(item);  // grows capacity; the value is overwritten below
  std::size_t hole = heap_.size() - 1;
  while (hole > 0) {
    const std::size_t parent = (hole - 1) >> 2;
    if (!before(item, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = item;
}

Engine::Item Engine::heap_remove(std::size_t pos) {
  const Item removed = heap_[pos];
  const Item last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (pos < n) {
    // Bottom-up deletion (Wegener): walk the hole down to a leaf along the
    // best-child path without comparing against `last` (it nearly always
    // belongs near the bottom anyway), then sift `last` up from the leaf.
    // Saves one comparison per level and its branch misprediction, and the
    // upward phase terminates after O(1) expected steps.
    std::size_t hole = pos;
    std::size_t first;
    while ((first = (hole << 2) + 1) < n) {
      const std::size_t end = first + 4 < n ? first + 4 : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      heap_[hole] = heap_[best];
      hole = best;
    }
    while (hole > 0) {
      const std::size_t parent = (hole - 1) >> 2;
      if (!before(last, heap_[parent])) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = last;
  }
  return removed;
}

void Engine::skim() {
  while (!heap_.empty()) {
    const std::uint32_t slot = heap_.front().slot;
    if (slot_ref(slot).armed) return;
    heap_remove(0);
    stats_.tombstones.inc();
    release(slot);
  }
}

bool Engine::step(SimTime bound) {
  skim();
  if (heap_.empty() || heap_.front().time > bound) return false;

  Item item;
  if (choice_hook_ != nullptr) {
    // Model-checking path: present the whole (time, priority) tie set and
    // fire whichever member the hook picks. before() already fixes the
    // full order, so the unhooked engine never consults anything but the
    // heap top; the hook is how the explorer reaches the other orders.
    collect_tie_set();
    std::size_t pick = 0;
    if (tie_view_.size() > 1) {
      pick = choice_hook_->choose(tie_view_);
      TG_REQUIRE(pick < tie_view_.size(), "choice hook picked index "
                                              << pick << " of a tie set of "
                                              << tie_view_.size());
    }
    const TieEntry& chosen = tie_entries_[pick];
    item = heap_remove(chosen.pos);
    choice_hook_->on_fire(chosen.cand);
  } else {
    item = heap_remove(0);
  }
  Slot& s = slot_ref(item.slot);
  TG_CHECK(item.time >= now_, "event queue went backwards");
  now_ = item.time;
  s.armed = false;
  --live_;
  stats_.fired.inc();
  // Invoke in place: chunk storage is stable, so `s` stays valid even if
  // the callback schedules (growing the slab) or cancels other events.
  // The slot itself is released only afterwards, so a handle to this
  // event stays stale (armed == false) rather than aliasing a new one.
  const std::uint32_t shard = shard_of(item);
  in_event_ = true;
  fire_shard_ = shard;
  fire_local_ = s.cls == EventClass::kLocal &&
                parts_[shard].serialize_count == 0;
  s.cb();
  in_event_ = false;
  fire_shard_ = 0;
  fire_local_ = false;
  release(item.slot);
  return true;
}

void Engine::collect_tie_set() {
  const SimTime time = heap_.front().time;
  const std::int32_t priority = heap_.front().priority;
  tie_entries_.clear();
  // Heap order starts with (time, priority), so an entry matching the top
  // in (time, priority) has ancestors that all match too: the matches are
  // one connected subtree and the walk below never visits a non-matching
  // node's children.
  tie_walk_.clear();
  tie_walk_.push_back(0);
  while (!tie_walk_.empty()) {
    const std::size_t pos = tie_walk_.back();
    tie_walk_.pop_back();
    const Item& it = heap_[pos];
    if (it.time != time || it.priority != priority) continue;
    if (const Slot& s = slot_ref(it.slot); s.armed) {
      // Tombstones link the subtree but never fire.
      const std::uint32_t shard = shard_of(it);
      tie_entries_.push_back(TieEntry{
          ChoiceHook::Candidate{it.time, it.priority, shard, seq_of(it),
                                s.cls, parts_[shard].serialize_count > 0},
          pos});
    }
    const std::size_t first = (pos << 2) + 1;
    const std::size_t end = std::min(first + 4, heap_.size());
    for (std::size_t c = first; c < end; ++c) tie_walk_.push_back(c);
  }
  std::sort(tie_entries_.begin(), tie_entries_.end(),
            [this](const TieEntry& a, const TieEntry& b) {
              return heap_[a.pos].order < heap_[b.pos].order;
            });
  tie_view_.clear();
  for (const TieEntry& e : tie_entries_) tie_view_.push_back(e.cand);
}

void Engine::set_choice_hook(ChoiceHook* hook) {
  TG_REQUIRE(!in_event_, "cannot swap the choice hook from inside an event");
  choice_hook_ = hook;
}

void Engine::bind_metrics(obs::MetricsRegistry& registry) const {
  registry.bind_counter("engine.events_scheduled", stats_.scheduled);
  registry.bind_counter("engine.events_cancelled", stats_.cancelled);
  registry.bind_counter("engine.events_fired", stats_.fired);
  registry.bind_counter("engine.heap_tombstones", stats_.tombstones);
  registry.bind_gauge("engine.heap_high_water", stats_.heap_high_water);
}

void Engine::configure_partitions(std::uint32_t count) {
  TG_REQUIRE(count >= 1 && count <= kMaxPartitions,
             "partition count " << count << " outside 1.." << kMaxPartitions);
  TG_REQUIRE(stats_.scheduled == 0,
             "configure_partitions requires a pristine engine: the "
             "partition id is part of the canonical event order");
  parts_.assign(count, Partition{});
}

void Engine::serialize_partition(std::uint32_t shard, bool on) {
  TG_REQUIRE(shard < parts_.size(),
             "partition " << shard << " of " << parts_.size());
  Partition& p = parts_[shard];
  p.serialize_count += on ? 1 : -1;
  TG_CHECK(p.serialize_count >= 0, "unbalanced serialize_partition calls");
}

std::size_t Engine::run() {
  stopped_ = false;
  std::size_t n = 0;
  while (!stopped_ && step(kMaxSimTime)) ++n;
  return n;
}

std::size_t Engine::run_until(SimTime t) {
  TG_REQUIRE(t >= now_, "run_until into the past");
  stopped_ = false;
  std::size_t n = 0;
  while (!stopped_ && step(t)) ++n;
  if (!stopped_) now_ = std::max(now_, t);
  return n;
}

}  // namespace tg
