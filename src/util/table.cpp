#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace tg {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  TG_REQUIRE(!headers_.empty(), "Table needs at least one column");
}

Table& Table::add_row(std::vector<std::string> cells) {
  TG_REQUIRE(cells.size() == headers_.size(),
             "row has " << cells.size() << " cells, table has "
                        << headers_.size() << " columns");
  rows_.push_back(std::move(cells));
  return *this;
}

Table& Table::add_rule() {
  rows_.emplace_back();  // sentinel
  return *this;
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  const auto emit_row = [&](std::ostringstream& os,
                            const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) os << "  ";
      const auto pad = widths[c] - cells[c].size();
      if (c > 0) os << std::string(pad, ' ');
      os << cells[c];
      if (c == 0 && cells.size() > 1) os << std::string(pad, ' ');
    }
    os << '\n';
  };

  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c)
    total += widths[c] + (c ? 2 : 0);

  std::ostringstream os;
  emit_row(os, headers_);
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) {
    if (row.empty()) {
      os << std::string(total, '-') << '\n';
    } else {
      emit_row(os, row);
    }
  }
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Table& t) {
  return os << t.to_string();
}

std::string Table::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string Table::num(std::int64_t v) { return std::to_string(v); }

std::string Table::pct(double fraction, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << fraction * 100.0 << '%';
  return os.str();
}

}  // namespace tg
