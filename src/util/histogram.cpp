#include "util/histogram.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace tg {

Log2Histogram::Log2Histogram(std::size_t max_bins) : counts_(max_bins, 0.0) {
  TG_REQUIRE(max_bins > 0, "Log2Histogram needs at least one bin");
}

void Log2Histogram::add(double x, double weight) {
  std::size_t idx = 0;
  if (x >= 1.0) {
    idx = static_cast<std::size_t>(std::floor(std::log2(x)));
    idx = std::min(idx, counts_.size() - 1);
  }
  counts_[idx] += weight;
  total_ += weight;
}

std::size_t Log2Histogram::used_bins() const {
  for (std::size_t i = counts_.size(); i > 0; --i) {
    if (counts_[i - 1] > 0) return i;
  }
  return 0;
}

std::string sparkline(const std::vector<double>& values) {
  static constexpr const char* kBlocks[] = {" ", "▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"};
  if (values.empty()) return "";
  const double mx = *std::max_element(values.begin(), values.end());
  std::string out;
  for (double v : values) {
    const int level =
        mx > 0 ? static_cast<int>(std::lround(v / mx * 8.0)) : 0;
    out += kBlocks[std::clamp(level, 0, 8)];
  }
  return out;
}

}  // namespace tg
