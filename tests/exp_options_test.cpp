// exp::Options::parse, the flag surface shared by every experiment and
// benchmark binary: numeric values parse exactly, and anything that is not
// a well-formed value exits 2 with usage, like an unknown flag, one the
// binary does not accept, or an output path that cannot be written. A
// write that fails after the run exits 1. Only the parser and the export
// writers run here — no Replicator or worker thread is ever started.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/exp_common.hpp"

namespace tg::exp {
namespace {

constexpr unsigned kEveryFlag = kJobs | kCsv | kTrace | kCheckInvariants |
                                kExactReplan | kAuditEvery | kMcRandom |
                                kStreaming | kSegments;

Options parse(std::vector<std::string> args, unsigned accepted = kEveryFlag) {
  std::vector<char*> argv{const_cast<char*>("exp_test")};
  for (std::string& a : args) argv.push_back(a.data());
  return Options::parse(static_cast<int>(argv.size()), argv.data(),
                        "exp_test", accepted);
}

std::string usage(unsigned accepted) {
  std::ostringstream os;
  Options::print_usage(os, "exp_test", accepted);
  return os.str();
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
  EXPECT_EQ(o.audit_period(), 43'200'000);
  EXPECT_EQ(parse({"--audit-every=2"}).audit_every, 2.0);
  EXPECT_EQ(parse({"--audit-every=0"}).audit_every, 0.0);
  EXPECT_EQ(parse({"--audit-every=0"}).audit_period(), 0);
}

TEST(ExpOptions, StringValuesPassThrough) {
  const std::string spill = ::testing::TempDir() + "exp_options_x=y";
  std::filesystem::create_directory(spill);
  const Options o = parse({"--csv=a.csv", "--trace", "--metrics=m.jsonl",
                           "--segment-cap=4096", "--spill-dir=" + spill});
  EXPECT_EQ(o.csv, "a.csv");
  EXPECT_EQ(o.trace, "exp_test.trace.jsonl");
  EXPECT_EQ(o.metrics, "m.jsonl");
  EXPECT_EQ(o.spill_dir, spill);
  // The path check created the missing files (the run would fill them);
  // the spill directory is this test's own.
  for (const std::string& path : {*o.csv, *o.trace, *o.metrics, spill}) {
    std::remove(path.c_str());
  }
}

TEST(ExpOptions, TraceAndMetricsAcceptedWithoutOptionalFlags) {
  // The benchmark surface: no optional flag, yet metrics export; a binary
  // that traces needs only kTrace.
  const Options o = parse({"--metrics"}, 0);
  EXPECT_EQ(o.metrics, "exp_test.metrics.jsonl");
  EXPECT_EQ(parse({"--trace=t.jsonl"}, kTrace).trace, "t.jsonl");
  for (const char* path : {"exp_test.metrics.jsonl", "t.jsonl"}) {
    std::remove(path);
  }
}

TEST(ExpOptions, PathCheckKeepsExistingContent) {
  const std::string path = ::testing::TempDir() + "exp_options_kept.out";
  std::ofstream(path) << "kept\n";
  parse({"--csv=" + path, "--trace=" + path, "--metrics=" + path});
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "kept\n");
  std::remove(path.c_str());
}

TEST(ExpOptions, UsageListsOnlyAcceptedFlags) {
  const std::string some = usage(kJobs | kCsv);
  for (const char* flag : {"--jobs=", "--csv", "--metrics", "--help"}) {
    EXPECT_NE(some.find(flag), std::string::npos) << flag;
  }
  for (const char* flag :
       {"--trace", "--check-invariants", "--exact-replan", "--audit-every",
        "--mc-random", "--mc-seed", "--streaming", "--segment-cap",
        "--spill-dir"}) {
    EXPECT_EQ(some.find(flag), std::string::npos) << flag;
  }
  const std::string none = usage(0);
  EXPECT_EQ(none.find("--jobs"), std::string::npos);
  EXPECT_EQ(none.find("--csv"), std::string::npos);
  EXPECT_EQ(none.find("--trace"), std::string::npos);
  EXPECT_NE(none.find("--metrics"), std::string::npos);
  EXPECT_NE(usage(kTrace).find("--trace"), std::string::npos);
  EXPECT_NE(usage(kEveryFlag).find("--spill-dir"), std::string::npos);
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

TEST_F(ExpOptionsDeathTest, UnacceptedFlagExitsWithUsage) {
  // A flag the binary would ignore is rejected like an unknown one.
  EXPECT_EXIT(parse({"--check-invariants"}, kCsv),
              ::testing::ExitedWithCode(2),
              "unknown option '--check-invariants'");
  EXPECT_EXIT(parse({"--jobs=2"}, kCsv | kExactReplan),
              ::testing::ExitedWithCode(2), "usage: exp_test");
  EXPECT_EXIT(parse({"--csv"}, 0), ::testing::ExitedWithCode(2),
              "usage: exp_test");
  // A binary that traces nothing rejects --trace rather than writing an
  // empty trace.
  EXPECT_EXIT(parse({"--trace=t.jsonl"}, kCsv), ::testing::ExitedWithCode(2),
              "unknown option '--trace=t.jsonl'");
  EXPECT_EXIT(parse({"--trace"}, 0), ::testing::ExitedWithCode(2),
              "usage: exp_test");
}

TEST_F(ExpOptionsDeathTest, UnwritableCsvPathExitsBeforeTheRun) {
  EXPECT_EXIT(parse({"--csv=/nonexistent/dir/x.csv"}),
              ::testing::ExitedWithCode(2),
              "cannot write --csv path '/nonexistent/dir/x.csv'");
  EXPECT_EXIT(parse({"--csv="}), ::testing::ExitedWithCode(2),
              "cannot write --csv path ''");
}

TEST_F(ExpOptionsDeathTest, UnwritableTracePathExitsBeforeTheRun) {
  EXPECT_EXIT(parse({"--trace=/nonexistent/dir/t.jsonl"}),
              ::testing::ExitedWithCode(2),
              "cannot write --trace path '/nonexistent/dir/t.jsonl'");
}

TEST_F(ExpOptionsDeathTest, UnwritableMetricsPathExitsBeforeTheRun) {
  EXPECT_EXIT(parse({"--metrics=/nonexistent/dir/m.jsonl"}),
              ::testing::ExitedWithCode(2),
              "cannot write --metrics path '/nonexistent/dir/m.jsonl'");
}

TEST_F(ExpOptionsDeathTest, SpillDirWithoutSegmentCapExitsWithUsage) {
  // Without a positive cap no segment ever seals, so nothing would spill.
  const std::string dir = ::testing::TempDir();
  EXPECT_EXIT(parse({"--spill-dir=" + dir}), ::testing::ExitedWithCode(2),
              "--spill-dir needs a positive --segment-cap");
  EXPECT_EXIT(parse({"--segment-cap=0", "--spill-dir=" + dir}),
              ::testing::ExitedWithCode(2), "usage: exp_test");
}

TEST_F(ExpOptionsDeathTest, UnwritableSpillDirExitsBeforeTheRun) {
  EXPECT_EXIT(parse({"--segment-cap=4096", "--spill-dir=/nonexistent/dir"}),
              ::testing::ExitedWithCode(2),
              "cannot write --spill-dir directory '/nonexistent/dir'");
  EXPECT_EXIT(parse({"--segment-cap=4096", "--spill-dir="}),
              ::testing::ExitedWithCode(2),
              "cannot write --spill-dir directory ''");
  // A regular file is not a directory.
  const std::string file = ::testing::TempDir() + "exp_options_not_a_dir";
  std::ofstream(file) << "x\n";
  EXPECT_EXIT(parse({"--segment-cap=4096", "--spill-dir=" + file}),
              ::testing::ExitedWithCode(2), "usage: exp_test");
  std::remove(file.c_str());
}

TEST_F(ExpOptionsDeathTest, FailedExportWriteExitsOne) {
  // /dev/full opens, so the path check passes; the write itself fails.
  const Options o = parse({"--metrics=/dev/full"});
  EXPECT_EXIT(Observability(o).finish(), ::testing::ExitedWithCode(1),
              "write to '/dev/full' failed");
  EXPECT_EXIT(OptionalCsv(std::optional<std::string>("/dev/full"), {"a"}),
              ::testing::ExitedWithCode(1), "write to '/dev/full' failed");
}

TEST_F(ExpOptionsDeathTest, StatsFlagsAreGone) {
  // Engine counters and process resources are read through --metrics.
  expect_usage_exit("--engine-stats");
  expect_usage_exit("--stats");
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
  // A period that does not fit Duration, or that is under 1 ms, would
  // convert to no audit at all.
  expect_usage_exit("--audit-every=1e300");
  expect_usage_exit("--audit-every=0.000000001");
}

}  // namespace
}  // namespace tg::exp
