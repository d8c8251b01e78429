#include "mc/random_check.hpp"

#include <iomanip>
#include <ostream>

#include "fault/invariants.hpp"
#include "mc/choice.hpp"
#include "mc/hash.hpp"

namespace tg::mc {

bool run_random_tiebreak_check(const ScenarioConfig& config,
                               std::size_t samples, std::uint64_t seed,
                               std::ostream& os) {
  ScenarioConfig untraced = config;
  untraced.trace = nullptr;

  bool ok = true;
  std::uint64_t canonical_hash = 0;
  // Sample 0 is the canonical order (no hook); samples 1..N randomize.
  for (std::size_t i = 0; i <= samples; ++i) {
    Scenario scenario(untraced);
    RandomTieBreaker breaker(mix64(seed ^ (0x7469656272 + i)));
    if (i > 0) scenario.engine().set_choice_hook(&breaker);
    scenario.run();
    if (i > 0) scenario.engine().set_choice_hook(nullptr);

    const InvariantReport report = scenario.audit_now(AuditPhase::kFinal);
    const std::uint64_t hash = hash_terminal_records(scenario.db());
    if (i == 0) canonical_hash = hash;

    const bool audit_ok = report.ok();
    const bool hash_ok = hash == canonical_hash;
    os << "[mc-random] replay " << i
       << (i == 0 ? " (canonical)" : "            ") << " choice-points="
       << breaker.choice_points() << " non-canonical="
       << breaker.non_canonical() << " max-tie=" << breaker.max_tie()
       << " records=0x" << std::hex << std::setw(16) << std::setfill('0')
       << hash << std::dec << std::setfill(' ')
       << (audit_ok && hash_ok ? " OK" : " FAIL") << "\n";
    if (!audit_ok) {
      os << "[mc-random]   invariants: " << report.to_string() << "\n";
      ok = false;
    }
    if (!hash_ok) {
      os << "[mc-random]   terminal records diverge from the canonical "
            "order — tie-breaking changed accounted usage\n";
      ok = false;
    }
  }
  return ok;
}

}  // namespace tg::mc
