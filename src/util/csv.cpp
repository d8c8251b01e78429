#include "util/csv.hpp"

#include "util/error.hpp"

namespace tg {

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& header)
    : out_(path), path_(path), columns_(header.size()) {
  TG_REQUIRE(!header.empty(), "CSV header must be non-empty");
  TG_REQUIRE(out_.is_open(), "cannot open '" << path << "' for writing");
  write_row(header);
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  TG_REQUIRE(cells.size() == columns_,
             "CSV row has " << cells.size() << " cells, expected " << columns_);
  // One buffered append per cell and a single stream write per row: the
  // per-cell operator<< path costs a sentry + virtual dispatch per insert,
  // which dominates wide sweep outputs. The flush makes a failed write
  // (a full disk) show here instead of being lost when the file closes.
  row_buffer_.clear();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) row_buffer_ += ',';
    append_escaped(row_buffer_, cells[i]);
  }
  row_buffer_ += '\n';
  out_.write(row_buffer_.data(),
             static_cast<std::streamsize>(row_buffer_.size()));
  out_.flush();
  TG_REQUIRE(out_.good(), "write to '" << path_ << "' failed");
}

void CsvWriter::append_escaped(std::string& out, const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) {
    out += field;
    return;
  }
  out += '"';
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

std::string CsvWriter::escape(const std::string& field) {
  std::string out;
  append_escaped(out, field);
  return out;
}

}  // namespace tg
