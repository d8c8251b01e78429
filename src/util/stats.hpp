// Streaming and batch statistics helpers used by metrics and experiments.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace tg {

/// Welford streaming accumulator: mean/variance/min/max without storing
/// samples. Numerically stable for long simulations.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  ///< sample variance (n-1)
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Percentile of a sample set using linear interpolation between closest
/// ranks. `q` in [0,1]. Sorts a copy; use `percentile_sorted` in loops.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// Percentile of an already-sorted sample set.
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted,
                                       double q);

/// Five-number-ish summary used in experiment output.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double min = 0.0;
  double max = 0.0;
};

[[nodiscard]] Summary summarize(std::vector<double> samples);

/// Human-readable engineering formatting, e.g. 1234567 -> "1.23M".
[[nodiscard]] std::string si_format(double value, int precision = 2);

}  // namespace tg
