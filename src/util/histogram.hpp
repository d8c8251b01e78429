// The log2-bin histogram that the job-size figure accumulates widths into,
// and a terminal sparkline for quick looks at a series.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace tg {

/// Log2-bin histogram for widths/sizes: bin i covers [2^i, 2^(i+1)).
class Log2Histogram {
 public:
  Log2Histogram() : Log2Histogram(32) {}
  explicit Log2Histogram(std::size_t max_bins);

  void add(double x, double weight = 1.0);

  [[nodiscard]] double count(std::size_t i) const { return counts_[i]; }
  [[nodiscard]] double total() const { return total_; }
  /// Index of the highest non-empty bin + 1 (for compact printing).
  [[nodiscard]] std::size_t used_bins() const;

 private:
  std::vector<double> counts_;
  double total_ = 0.0;
};

/// Renders a one-line unicode sparkline of bin counts, for quick terminal
/// inspection of distributions in experiment output.
[[nodiscard]] std::string sparkline(const std::vector<double>& values);

}  // namespace tg
