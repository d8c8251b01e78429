#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace tg {
namespace {

TEST(Table, RendersHeaderAndRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta", "22"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
}

TEST(Table, ColumnsAlign) {
  Table t({"k", "v"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  std::istringstream in(t.to_string());
  std::string line;
  std::size_t width = 0;
  bool first = true;
  while (std::getline(in, line)) {
    if (first) {
      width = line.size();
      first = false;
    }
    // Right-aligned numeric column keeps all lines equally wide.
    EXPECT_EQ(line.size(), width) << line;
  }
}

TEST(Table, RowArityEnforced) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), PreconditionError);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), PreconditionError);
}

TEST(Table, EmptyHeaderRejected) {
  EXPECT_THROW(Table({}), PreconditionError);
}

TEST(Table, RuleProducesSeparator) {
  Table t({"a"});
  t.add_row({"1"});
  t.add_rule();
  t.add_row({"2"});
  const std::string out = t.to_string();
  // Header rule + explicit rule.
  std::size_t rules = 0;
  std::istringstream in(out);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.find_first_not_of('-') == std::string::npos) {
      ++rules;
    }
  }
  EXPECT_EQ(rules, 2u);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(std::int64_t{42}), "42");
  EXPECT_EQ(Table::pct(0.1234), "12.3%");
  EXPECT_EQ(Table::pct(0.5, 0), "50%");
}

class CsvFixture : public ::testing::Test {
 protected:
  std::string path_ = ::testing::TempDir() + "tg_csv_test.csv";

  void TearDown() override { std::remove(path_.c_str()); }

  std::string slurp() {
    std::ifstream in(path_);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }
};

TEST_F(CsvFixture, WritesHeaderAndRows) {
  {
    CsvWriter w(path_, {"a", "b"});
    w.write_row({"1", "2"});
    w.write_row({"3", "4"});
  }
  EXPECT_EQ(slurp(), "a,b\n1,2\n3,4\n");
}

TEST_F(CsvFixture, EscapesSpecials) {
  {
    CsvWriter w(path_, {"f"});
    w.write_row({"has,comma"});
    w.write_row({"has\"quote"});
  }
  EXPECT_EQ(slurp(), "f\n\"has,comma\"\n\"has\"\"quote\"\n");
}

TEST_F(CsvFixture, ArityEnforced) {
  CsvWriter w(path_, {"a", "b"});
  EXPECT_THROW(w.write_row({"1"}), PreconditionError);
}

TEST(CsvWriterErrors, MissingDirectoryThrows) {
  // A path whose directory does not exist must fail loudly, not write
  // nothing and report success; so must an empty path.
  EXPECT_THROW(CsvWriter(::testing::TempDir() + "tg_no_such_dir/x.csv", {"a"}),
               PreconditionError);
  EXPECT_THROW(CsvWriter("", {"a"}), PreconditionError);
}

TEST(CsvWriterErrors, FailedWriteThrows) {
  // /dev/full opens but fails every write: the header row must throw
  // instead of vanishing when the file closes.
  if (!std::ifstream("/dev/full").good()) GTEST_SKIP() << "no /dev/full";
  EXPECT_THROW(CsvWriter("/dev/full", {"a"}), PreconditionError);
}

TEST(CsvEscape, PassThroughPlain) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("new\nline"), "\"new\nline\"");
}

}  // namespace
}  // namespace tg
