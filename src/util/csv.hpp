// Minimal RFC-4180-ish CSV writer for experiment series output.
#pragma once

#include <fstream>
#include <string>
#include <vector>

namespace tg {

/// Writes rows to a CSV file; fields containing commas/quotes/newlines are
/// quoted. The file is flushed and closed on destruction (RAII).
class CsvWriter {
 public:
  /// Opens `path` for writing and emits the header row. Throws
  /// PreconditionError if the file cannot be opened.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Writes and flushes one row. Throws PreconditionError if the stream is
  /// no longer good after the flush.
  void write_row(const std::vector<std::string>& cells);

  [[nodiscard]] static std::string escape(const std::string& field);

 private:
  /// Appends `field` to `out`, quoting it if it needs escaping.
  static void append_escaped(std::string& out, const std::string& field);

  std::ofstream out_;
  std::string path_;
  std::size_t columns_;
  std::string row_buffer_;  ///< reused across rows; one write per row
};

}  // namespace tg
