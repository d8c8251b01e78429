// The partitioned DES core (DESIGN.md §5.7): partitions by topology and
// the scheduler pool's binding rule, the canonical tie order across
// partitions, partition serialization, and the locality check on kLocal
// events.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "des/engine.hpp"
#include "infra/platform.hpp"
#include "sched/pool.hpp"
#include "util/error.hpp"

namespace tg {
namespace {

// --- Partitions by topology ------------------------------------------------

TEST(Partitions, CoordinatorPlusOnePartitionPerSite) {
  EXPECT_EQ(partition_count(mini_platform()), 3u);
  EXPECT_EQ(partition_count(teragrid_2010()), 12u);
  EXPECT_EQ(site_partition(SiteId{0}), 1u);
  EXPECT_EQ(site_partition(SiteId{1}), 2u);
  EXPECT_EQ(site_partition(SiteId{10}), 11u);
}

TEST(Partitions, SchedulerPoolBindsByTheEnginesPartitionCount) {
  const Platform platform = teragrid_2010();
  {
    Engine unpartitioned;
    const SchedulerPool pool(unpartitioned, platform);
    for (const ResourceId id : pool.resource_ids()) {
      EXPECT_EQ(pool.at(id).shard(), 0u) << id;
    }
  }
  {
    Engine by_site;
    by_site.configure_partitions(partition_count(platform));
    const SchedulerPool pool(by_site, platform);
    for (const ResourceId id : pool.resource_ids()) {
      EXPECT_EQ(pool.at(id).shard(),
                1u + static_cast<std::uint32_t>(
                         platform.compute_at(id).site.value()))
          << id;
    }
  }
  Engine two;
  two.configure_partitions(2);
  EXPECT_THROW(SchedulerPool(two, platform), PreconditionError);
}

// --- Canonical order -------------------------------------------------------

TEST(ShardedEngine, EqualKeysFirePartitionFirstThenFifo) {
  // Equal (time, priority) everywhere, scheduled on partitions 2, 1 and 0
  // in that order: the one heap breaks the tie by partition id, then by
  // scheduling order within the partition.
  Engine e;
  e.configure_partitions(3);
  std::vector<std::string> log;
  for (const std::uint32_t shard : {2u, 1u, 0u}) {
    for (const char tag : {'a', 'b'}) {
      e.schedule_at(
          10, [&log, shard, tag] { log.push_back(std::to_string(shard) + tag); },
          EventPriority::kDefault, EventBinding{shard, EventClass::kLocal});
    }
  }
  e.run();
  const std::vector<std::string> expected{"0a", "0b", "1a", "1b", "2a", "2b"};
  EXPECT_EQ(log, expected);
}

// --- Partition serialization -----------------------------------------------

TEST(ShardedEngine, SerializedPartitionMaySchedulePastItself) {
  // A serialized partition's kLocal events are exempt from the locality
  // check: here one schedules onto partition 2.
  Engine e;
  e.configure_partitions(3);
  e.serialize_partition(1, true);
  std::vector<std::string> log;
  e.schedule_at(
      50,
      [&] {
        log.push_back("serialized@50");
        e.schedule_at(
            60, [&] { log.push_back("cross@60"); }, EventPriority::kDefault,
            EventBinding{2, EventClass::kLocal});
      },
      EventPriority::kDefault, EventBinding{1, EventClass::kLocal});
  e.run();
  const std::vector<std::string> expected{"serialized@50", "cross@60"};
  EXPECT_EQ(log, expected);
}

TEST(ShardedEngine, SerializeCallsNest) {
  Engine e;
  e.configure_partitions(2);
  e.serialize_partition(1, true);
  e.serialize_partition(1, true);
  e.serialize_partition(1, false);
  e.serialize_partition(1, false);
  EXPECT_THROW(e.serialize_partition(1, false), InvariantError);
}

// --- Locality check --------------------------------------------------------

/// Runs `bad(engine)` from a kLocal event of unserialized partition 1.
/// Violations surface as exceptions out of run().
void run_local_event(const std::function<void(Engine&)>& bad) {
  Engine e;
  e.configure_partitions(3);
  e.schedule_at(10, [&e, &bad] { bad(e); }, EventPriority::kDefault,
                EventBinding{1, EventClass::kLocal});
  e.run();
}

TEST(ShardedEngine, LocalEventRejectsCrossPartitionScheduling) {
  EXPECT_THROW(run_local_event([](Engine& e) {
                 e.schedule_at(
                     30, [] {}, EventPriority::kDefault,
                     EventBinding{2, EventClass::kLocal});
               }),
               InvariantError);
}

TEST(ShardedEngine, LocalEventRejectsCrossPartitionCancel) {
  EXPECT_THROW(
      {
        Engine e;
        e.configure_partitions(3);
        const EventId other = e.schedule_at(
            90, [] {}, EventPriority::kDefault,
            EventBinding{2, EventClass::kLocal});
        e.schedule_at(
            10, [&e, other] { e.cancel(other); }, EventPriority::kDefault,
            EventBinding{1, EventClass::kLocal});
        e.run();
      },
      InvariantError);
}

TEST(ShardedEngine, LocalEventMayScheduleWallOnItsOwnPartition) {
  // Failure hazards do exactly this: a job start inside a kLocal pass arms
  // the interrupt, a wall on the same partition.
  int fired = 0;
  run_local_event([&fired](Engine& e) {
    e.schedule_at(30, [&fired] { ++fired; });
  });
  EXPECT_EQ(fired, 1);
}

TEST(ShardedEngine, ConfigurePartitionsRequiresPristineEngine) {
  Engine e;
  e.schedule_at(10, [] {});
  EXPECT_THROW(e.configure_partitions(3), PreconditionError);
}

TEST(ShardedEngine, RejectsUnknownPartitionBinding) {
  Engine e;
  e.configure_partitions(3);
  EXPECT_THROW(e.schedule_at(10, [] {}, EventPriority::kDefault,
                             EventBinding{7, EventClass::kLocal}),
               PreconditionError);
}

}  // namespace
}  // namespace tg
