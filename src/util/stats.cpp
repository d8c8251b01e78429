#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.hpp"

namespace tg {

void RunningStats::add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, q);
}

double percentile_sorted(const std::vector<double>& sorted, double q) {
  TG_REQUIRE(0.0 <= q && q <= 1.0, "percentile q must be in [0,1], got " << q);
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted.front();
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  double total = 0.0;
  for (double v : samples) total += v;
  s.mean = total / static_cast<double>(samples.size());
  s.p50 = percentile_sorted(samples, 0.50);
  s.p90 = percentile_sorted(samples, 0.90);
  s.p99 = percentile_sorted(samples, 0.99);
  s.min = samples.front();
  s.max = samples.back();
  return s;
}

std::string si_format(double value, int precision) {
  static constexpr const char* kSuffixes[] = {"", "k", "M", "G", "T", "P"};
  double v = std::fabs(value);
  int idx = 0;
  while (v >= 1000.0 && idx < 5) {
    v /= 1000.0;
    ++idx;
  }
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(idx == 0 ? 0 : precision);
  os << (value < 0 ? -v : v) << kSuffixes[idx];
  return os.str();
}

}  // namespace tg
