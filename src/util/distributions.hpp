// Sampling distributions used by the synthetic workload generators.
//
// All distributions are small value types with a `sample(Rng&)` member; they
// are deliberately implemented from first principles (inverse-CDF or exact
// transforms) so that results are reproducible across standard libraries.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace tg {

/// Exponential(rate): mean = 1/rate.
class Exponential {
 public:
  explicit Exponential(double rate);
  [[nodiscard]] double sample(Rng& rng) const;
  [[nodiscard]] double mean() const { return 1.0 / rate_; }
  [[nodiscard]] double rate() const { return rate_; }

 private:
  double rate_;
};

/// LogNormal with parameters mu/sigma of the underlying normal.
class LogNormal {
 public:
  LogNormal(double mu, double sigma);
  /// Constructs from the desired mean and coefficient of variation of the
  /// log-normal itself (more natural for workload modelling).
  [[nodiscard]] static LogNormal from_mean_cv(double mean, double cv);
  [[nodiscard]] double sample(Rng& rng) const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double mu() const { return mu_; }
  [[nodiscard]] double sigma() const { return sigma_; }

 private:
  double mu_;
  double sigma_;
};

/// Pareto truncated to [lo, hi]; heavy-tailed sizes (files, transfers).
class BoundedPareto {
 public:
  BoundedPareto(double alpha, double lo, double hi);
  [[nodiscard]] double sample(Rng& rng) const;

 private:
  double alpha_;
  double lo_;
  double hi_;
};

/// Zipf over {1..n} with exponent s; used for popularity skews
/// (which resources / gateways users prefer).
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  /// Returns a rank in [1, n].
  [[nodiscard]] std::size_t sample(Rng& rng) const;
  [[nodiscard]] std::size_t n() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// Discrete distribution over {0..n-1} from arbitrary non-negative weights.
class Discrete {
 public:
  explicit Discrete(std::vector<double> weights);
  [[nodiscard]] std::size_t sample(Rng& rng) const;
  [[nodiscard]] std::size_t size() const { return cdf_.size(); }
  /// Normalized probability of outcome i.
  [[nodiscard]] double probability(std::size_t i) const;

 private:
  std::vector<double> cdf_;
};

/// Log-uniform integer in [lo, hi]: uniform in log-space, then rounded.
/// Matches the classic observation that parallel-job widths are roughly
/// log-uniform with spikes at powers of two.
class LogUniformInt {
 public:
  LogUniformInt(std::int64_t lo, std::int64_t hi);
  [[nodiscard]] std::int64_t sample(Rng& rng) const;

 private:
  double log_lo_;
  double log_hi_;
  std::int64_t lo_;
  std::int64_t hi_;
};

/// Rounds a width up to the next power of two with probability p2; models
/// the power-of-two spikes in job-width histograms.
[[nodiscard]] std::int64_t snap_to_power_of_two(std::int64_t width, double p2,
                                                Rng& rng);

/// Samples a standard normal via Marsaglia polar method (deterministic
/// given the Rng stream).
[[nodiscard]] double sample_standard_normal(Rng& rng);

}  // namespace tg
