// exp::Options::parse, the flag surface shared by every experiment and
// benchmark binary: numeric values parse exactly, and anything that is not
// a well-formed value exits 2 with usage, like an unknown flag. Only the
// parser runs here — no Replicator or thread pool is ever built.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench/exp_common.hpp"

namespace tg::exp {
namespace {

Options parse(std::vector<std::string> args) {
  std::vector<char*> argv{const_cast<char*>("exp_test")};
  for (std::string& a : args) argv.push_back(a.data());
  return Options::parse(static_cast<int>(argv.size()), argv.data(),
                        "exp_test");
}

TEST(ExpOptions, DefaultsWithoutFlags) {
  const Options o = parse({});
  EXPECT_EQ(o.jobs, 0u);
  EXPECT_EQ(o.mc_random, 0u);
  EXPECT_EQ(o.mc_seed, 1u);
  EXPECT_EQ(o.segment_cap, 0u);
  EXPECT_EQ(o.audit_every, 0.0);
}

TEST(ExpOptions, JobsZeroMeansOneWorkerPerHardwareThread) {
  // 0 is passed through to Replicator, which reads it as "hardware".
  EXPECT_EQ(parse({"--jobs=0"}).jobs, 0u);
  EXPECT_EQ(parse({"--jobs=1"}).jobs, 1u);
  EXPECT_EQ(parse({"--jobs=4"}).jobs, 4u);
}

TEST(ExpOptions, ParsesNumericValues) {
  const Options o = parse({"--mc-random=8", "--mc-seed=18446744073709551615",
                           "--segment-cap=4096", "--audit-every=0.5"});
  EXPECT_EQ(o.mc_random, 8u);
  EXPECT_EQ(o.mc_seed, UINT64_MAX);
  EXPECT_EQ(o.segment_cap, 4096u);
  EXPECT_EQ(o.audit_every, 0.5);
  EXPECT_EQ(parse({"--audit-every=2"}).audit_every, 2.0);
  EXPECT_EQ(parse({"--audit-every=0"}).audit_every, 0.0);
}

TEST(ExpOptions, StringValuesPassThrough) {
  const Options o = parse({"--csv=a.csv", "--trace", "--metrics=m.jsonl",
                           "--spill-dir=/tmp/x=y"});
  EXPECT_EQ(o.csv, "a.csv");
  EXPECT_EQ(o.trace, "exp_test.trace.jsonl");
  EXPECT_EQ(o.metrics, "m.jsonl");
  EXPECT_EQ(o.spill_dir, "/tmp/x=y");
}

using ExpOptionsDeathTest = ::testing::Test;

void expect_usage_exit(const std::string& arg) {
  EXPECT_EXIT(parse({arg}), ::testing::ExitedWithCode(2), "usage: exp_test")
      << arg;
}

TEST_F(ExpOptionsDeathTest, UnknownFlagExitsWithUsage) {
  expect_usage_exit("--bogus");
  expect_usage_exit("positional");
}

TEST_F(ExpOptionsDeathTest, MalformedWholeNumbersExitWithUsage) {
  for (const char* flag : {"--jobs=", "--mc-random=", "--mc-seed=",
                           "--segment-cap="}) {
    for (const char* value : {"", "x", "-1", "+1", " 1", "1x", "1.5"}) {
      expect_usage_exit(std::string(flag) + value);
    }
  }
  // Out of range for the field's type.
  expect_usage_exit("--segment-cap=4294967296");
  expect_usage_exit("--mc-seed=18446744073709551616");
}

TEST_F(ExpOptionsDeathTest, MalformedAuditPeriodExitsWithUsage) {
  for (const char* value : {"", "x", "-1", "-0", "+1", "1d", "nan", "inf"}) {
    expect_usage_exit(std::string("--audit-every=") + value);
  }
}

}  // namespace
}  // namespace tg::exp
