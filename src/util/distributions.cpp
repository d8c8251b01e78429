#include "util/distributions.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace tg {

Exponential::Exponential(double rate) : rate_(rate) {
  TG_REQUIRE(rate > 0.0, "Exponential rate must be positive, got " << rate);
}

double Exponential::sample(Rng& rng) const {
  // Inverse CDF; 1 - u avoids log(0).
  return -std::log(1.0 - rng.uniform()) / rate_;
}

LogNormal::LogNormal(double mu, double sigma) : mu_(mu), sigma_(sigma) {
  TG_REQUIRE(sigma >= 0.0, "LogNormal sigma must be non-negative");
}

LogNormal LogNormal::from_mean_cv(double mean, double cv) {
  TG_REQUIRE(mean > 0.0, "LogNormal mean must be positive");
  TG_REQUIRE(cv >= 0.0, "LogNormal cv must be non-negative");
  const double sigma2 = std::log(1.0 + cv * cv);
  const double mu = std::log(mean) - 0.5 * sigma2;
  return LogNormal{mu, std::sqrt(sigma2)};
}

double LogNormal::sample(Rng& rng) const {
  return std::exp(mu_ + sigma_ * sample_standard_normal(rng));
}

double LogNormal::mean() const { return std::exp(mu_ + 0.5 * sigma_ * sigma_); }

BoundedPareto::BoundedPareto(double alpha, double lo, double hi)
    : alpha_(alpha), lo_(lo), hi_(hi) {
  TG_REQUIRE(alpha > 0.0, "BoundedPareto alpha must be positive");
  TG_REQUIRE(0.0 < lo && lo < hi, "BoundedPareto requires 0 < lo < hi");
}

double BoundedPareto::sample(Rng& rng) const {
  const double u = rng.uniform();
  const double la = std::pow(lo_, alpha_);
  const double ha = std::pow(hi_, alpha_);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha_);
}

Zipf::Zipf(std::size_t n, double s) {
  TG_REQUIRE(n > 0, "Zipf needs at least one outcome");
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (auto& c : cdf_) c /= total;
}

std::size_t Zipf::sample(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin()) + 1;
}

Discrete::Discrete(std::vector<double> weights) {
  TG_REQUIRE(!weights.empty(), "Discrete needs at least one weight");
  double total = 0.0;
  cdf_.resize(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    TG_REQUIRE(weights[i] >= 0.0, "Discrete weight " << i << " is negative");
    total += weights[i];
    cdf_[i] = total;
  }
  TG_REQUIRE(total > 0.0, "Discrete weights sum to zero");
  for (auto& c : cdf_) c /= total;
}

std::size_t Discrete::sample(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin());
}

double Discrete::probability(std::size_t i) const {
  TG_REQUIRE(i < cdf_.size(), "Discrete outcome out of range");
  return i == 0 ? cdf_[0] : cdf_[i] - cdf_[i - 1];
}

LogUniformInt::LogUniformInt(std::int64_t lo, std::int64_t hi)
    : log_lo_(std::log(static_cast<double>(lo))),
      log_hi_(std::log(static_cast<double>(hi))),
      lo_(lo),
      hi_(hi) {
  TG_REQUIRE(1 <= lo && lo <= hi, "LogUniformInt requires 1 <= lo <= hi");
}

std::int64_t LogUniformInt::sample(Rng& rng) const {
  const double x = std::exp(rng.uniform(log_lo_, log_hi_));
  const auto v = static_cast<std::int64_t>(std::llround(x));
  return std::clamp(v, lo_, hi_);
}

std::int64_t snap_to_power_of_two(std::int64_t width, double p2, Rng& rng) {
  TG_REQUIRE(width >= 1, "width must be >= 1");
  if (!rng.bernoulli(p2)) return width;
  std::int64_t pow2 = 1;
  while (pow2 < width) pow2 <<= 1;
  return pow2;
}

double sample_standard_normal(Rng& rng) {
  // Marsaglia polar method. Note: consumes a variable number of uniforms;
  // callers that need exact stream alignment should fork a dedicated stream.
  for (;;) {
    const double u = rng.uniform(-1.0, 1.0);
    const double v = rng.uniform(-1.0, 1.0);
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

}  // namespace tg
