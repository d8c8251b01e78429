#include "obs/profile.hpp"

#include "obs/metrics.hpp"

namespace tg::obs {

PhaseProfiler::Scope::~Scope() {
  if (profiler_ == nullptr) return;
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  Phase& p = profiler_->phases_[index_];
  p.seconds += seconds;
  ++p.calls;
}

std::size_t PhaseProfiler::index_of(std::string_view phase) {
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    if (phases_[i].name == phase) return i;
  }
  phases_.push_back(Phase{std::string(phase), 0.0, 0});
  return phases_.size() - 1;
}

PhaseProfiler::Scope PhaseProfiler::measure(std::string_view phase) {
  return Scope(this, index_of(phase));
}

void PhaseProfiler::publish(MetricsRegistry& registry) const {
  for (const Phase& p : phases_) {
    const std::string base = "phase." + p.name;
    registry.gauge(base + ".seconds").set(p.seconds);
    registry.counter(base + ".calls").set(p.calls);
  }
}

}  // namespace tg::obs
