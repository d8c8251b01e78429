#include "mc/hash.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>

#include "accounting/records.hpp"
#include "accounting/usage_db.hpp"

namespace tg::mc {

bool independent(const ChoiceHook::Candidate& a,
                 const ChoiceHook::Candidate& b) {
  return a.shard != b.shard && a.cls == EventClass::kLocal &&
         b.cls == EventClass::kLocal && !a.serialized && !b.serialized;
}

namespace {

/// Chained field mixer: order-sensitive, which is fine because callers
/// feed fields (and records) in a canonical order.
class Chain {
 public:
  void add(std::uint64_t v) { h_ = mix64(h_ ^ v); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(SimTime t) { add(static_cast<std::uint64_t>(t)); }
  void add(int v) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void add(bool v) { add(std::uint64_t{v}); }
  template <class Tag, class Rep>
  void add(Id<Tag, Rep> id) {
    add(static_cast<std::uint64_t>(static_cast<std::int64_t>(id.value())));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x6d6f64616c697479ULL;  // arbitrary non-zero seed
};

void add_record(Chain& c, const JobRecord& r) {
  c.add(r.job);
  c.add(r.resource);
  c.add(r.user);
  c.add(r.project);
  c.add(r.submit_time);
  c.add(r.start_time);
  c.add(r.end_time);
  c.add(r.nodes);
  c.add(r.cores_per_node);
  c.add(r.requested_walltime);
  c.add(static_cast<std::uint64_t>(r.final_state));
  c.add(static_cast<std::uint64_t>(r.disposition));
  c.add(r.charged_su);
  c.add(r.charged_nu);
  c.add(r.gateway);
  c.add(r.gateway_end_user);
  c.add(r.workflow);
  c.add(r.interactive);
  c.add(r.coallocated);
  c.add(r.viz_resource);
}

void add_record(Chain& c, const TransferRecord& r) {
  c.add(r.transfer);
  c.add(r.src);
  c.add(r.dst);
  c.add(r.user);
  c.add(r.project);
  c.add(r.bytes);
  c.add(r.submit_time);
  c.add(r.end_time);
}

void add_record(Chain& c, const SessionRecord& r) {
  c.add(r.user);
  c.add(r.resource);
  c.add(r.start_time);
  c.add(r.end_time);
  c.add(r.viz);
}

/// Hashes `records` in the order induced by `less` (a strict weak order
/// that is total on distinct record content at equal end times).
template <class Record, class Less>
void add_stream(Chain& c, const std::vector<Record>& records, Less less) {
  std::vector<const Record*> sorted;
  sorted.reserve(records.size());
  for (const Record& r : records) sorted.push_back(&r);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [&](const Record* a, const Record* b) {
                     return less(*a, *b);
                   });
  c.add(std::uint64_t{records.size()});
  for (const Record* r : sorted) add_record(c, *r);
}

}  // namespace

std::uint64_t hash_terminal_records(const UsageDatabase& db) {
  Chain c;
  add_stream(c, db.jobs(), [](const JobRecord& a, const JobRecord& b) {
    if (a.end_time != b.end_time) return a.end_time < b.end_time;
    if (a.job != b.job) return a.job < b.job;
    return a.start_time < b.start_time;
  });
  add_stream(c, db.transfers(),
             [](const TransferRecord& a, const TransferRecord& b) {
               if (a.end_time != b.end_time) return a.end_time < b.end_time;
               return a.transfer < b.transfer;
             });
  add_stream(c, db.sessions(),
             [](const SessionRecord& a, const SessionRecord& b) {
               if (a.end_time != b.end_time) return a.end_time < b.end_time;
               if (a.user != b.user) return a.user < b.user;
               if (a.resource != b.resource) return a.resource < b.resource;
               return a.start_time < b.start_time;
             });
  return c.value();
}

void FoataSignature::add(const ChoiceHook::Candidate& fired) {
  // Serialized-partition locals are exempt from the locality check and may
  // touch anything, so they order against everything — same as walls.
  const bool wall_like =
      fired.cls == EventClass::kBarrier || fired.serialized;
  std::uint64_t level;
  if (wall_like) {
    level = wall_level_;
    for (const std::uint64_t l : level_) level = std::max(level, l);
    ++level;
    wall_level_ = level;
  } else {
    if (fired.shard >= level_.size()) level_.resize(fired.shard + 1, 0);
    level = std::max(level_[fired.shard], wall_level_) + 1;
    level_[fired.shard] = level;
  }
  std::uint64_t h = mix64(level);
  h = mix64(h ^ static_cast<std::uint64_t>(fired.time));
  h = mix64(h ^ static_cast<std::uint64_t>(
                    static_cast<std::uint32_t>(fired.priority)));
  h = mix64(h ^ ((std::uint64_t{fired.shard} << 48) ^ fired.seq));
  // Summation is commutative: events sharing a Foata level are mutually
  // independent and may fire in any order without changing the class.
  hash_ += h;
  ++events_;
}

}  // namespace tg::mc
