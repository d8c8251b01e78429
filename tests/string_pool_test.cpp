#include "util/string_pool.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "accounting/swf.hpp"
#include "accounting/usage_db.hpp"

namespace tg {
namespace {

TEST(StringPool, InternReturnsDenseIdsInFirstSightOrder) {
  StringPool pool;
  EXPECT_TRUE(pool.empty());
  const EndUserId a = pool.intern("hub:alice");
  const EndUserId b = pool.intern("hub:bob");
  const EndUserId c = pool.intern("hub:carol");
  EXPECT_EQ(a.value(), 0);
  EXPECT_EQ(b.value(), 1);
  EXPECT_EQ(c.value(), 2);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(StringPool, ReinterningIsIdempotent) {
  StringPool pool;
  const EndUserId first = pool.intern("hub:alice");
  (void)pool.intern("hub:bob");
  EXPECT_EQ(pool.intern("hub:alice"), first);
  EXPECT_EQ(pool.size(), 2u);
}

TEST(StringPool, EmptyStringMapsToInvalidId) {
  StringPool pool;
  const EndUserId none = pool.intern("");
  EXPECT_FALSE(none.valid());
  EXPECT_TRUE(pool.empty());
  EXPECT_EQ(pool.at(none), "");
}

TEST(StringPool, FindWithoutInterning) {
  StringPool pool;
  EXPECT_FALSE(pool.find("hub:alice").valid());
  const EndUserId a = pool.intern("hub:alice");
  EXPECT_EQ(pool.find("hub:alice"), a);
  EXPECT_FALSE(pool.find("hub:bob").valid());
}

TEST(StringPool, AtRoundTripsEveryInternedString) {
  StringPool pool;
  std::vector<EndUserId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(pool.intern("nanohub:user" + std::to_string(i)));
  }
  ASSERT_EQ(pool.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(pool.at(ids[static_cast<std::size_t>(i)]),
              "nanohub:user" + std::to_string(i));
  }
}

TEST(StringPool, GrowthPreservesIdsAndLookups) {
  // Push well past the initial table size to force several rehashes.
  StringPool pool;
  for (int i = 0; i < 5000; ++i) {
    const std::string name = std::string("u").append(std::to_string(i));
    ASSERT_EQ(pool.intern(name).value(), i);
  }
  for (int i = 0; i < 5000; ++i) {
    const std::string name = std::string("u").append(std::to_string(i));
    EXPECT_EQ(pool.find(name).value(), i);
  }
}

TEST(StringPool, DeterministicAcrossInstances) {
  StringPool a;
  StringPool b;
  const std::vector<std::string> labels{"x", "hub:a", "hub:b", "y", "z"};
  for (const auto& s : labels) (void)a.intern(s);
  for (const auto& s : labels) (void)b.intern(s);
  for (const auto& s : labels) EXPECT_EQ(a.find(s), b.find(s));
}

TEST(StringPool, IdsSurviveSwfExportImportRoundTrip) {
  // The end-user id rides SWF field 14 (executable): a database exported
  // to SWF and re-imported yields requests carrying the same interned ids.
  StringPool pool;
  UsageDatabase db;
  for (int i = 0; i < 6; ++i) {
    JobRecord r;
    r.resource = ResourceId{0};
    r.user = UserId{1};
    r.nodes = 1;
    r.cores_per_node = 8;
    r.submit_time = i * kHour;
    r.start_time = i * kHour;
    r.end_time = (i + 1) * kHour;
    r.requested_walltime = kHour;
    r.final_state = JobState::kCompleted;
    // Two jobs carry no attribute; the rest alternate between two users.
    if (i >= 2) {
      r.gateway = GatewayId{0};
      r.gateway_end_user =
          pool.intern(i % 2 == 0 ? "hub:alice" : "hub:bob");
    }
    db.add(r);
  }

  std::ostringstream out;
  export_swf(db, out);
  std::istringstream in(out.str());
  SwfParseStats stats;
  const auto jobs = import_swf(in, &stats);
  ASSERT_EQ(stats.parsed, 6u);
  EXPECT_EQ(stats.skipped, 0u);

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobRequest req = to_request(jobs[i], 8);
    EXPECT_EQ(req.gateway_end_user, db.jobs()[i].gateway_end_user)
        << "job " << i;
  }
  // The ids resolve back to the original labels through the same pool.
  EXPECT_EQ(pool.at(db.jobs()[2].gateway_end_user), "hub:alice");
  EXPECT_EQ(pool.at(db.jobs()[3].gateway_end_user), "hub:bob");
  EXPECT_FALSE(db.jobs()[0].gateway_end_user.valid());
}

TEST(UsageDatabase, EndUserLabelResolvesThroughAttachedPool) {
  StringPool pool;
  UsageDatabase db;
  db.set_end_user_pool(&pool);
  JobRecord r;
  r.resource = ResourceId{0};
  r.user = UserId{1};
  r.nodes = 1;
  r.cores_per_node = 8;
  r.end_time = kHour;
  r.gateway = GatewayId{0};
  r.gateway_end_user = pool.intern("hub:alice");
  db.add(r);
  EXPECT_EQ(db.end_user_label(db.jobs()[0].gateway_end_user), "hub:alice");
  EXPECT_EQ(db.end_user_label(EndUserId{}), "");
  EXPECT_EQ(db.end_user_id_limit(), 1);
}

}  // namespace
}  // namespace tg
