// Aligned ASCII table rendering for experiment output.
//
// The bench binaries regenerate the paper's tables as terminal output; this
// printer keeps that output readable and diff-stable.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace tg {

/// Column-aligned table with a header row and optional rules. Column 0 is
/// left-aligned, every other column right-aligned.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  Table& add_row(std::vector<std::string> cells);
  /// Inserts a horizontal rule before the next row.
  Table& add_rule();

  [[nodiscard]] std::string to_string() const;
  friend std::ostream& operator<<(std::ostream& os, const Table& t);

  /// Cell-formatting helpers.
  [[nodiscard]] static std::string num(double v, int precision = 2);
  [[nodiscard]] static std::string num(std::int64_t v);
  [[nodiscard]] static std::string pct(double fraction, int precision = 1);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;  // empty row == rule
};

}  // namespace tg
