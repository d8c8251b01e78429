// The benchmark's workloads, one cold pass over them, and the checks and
// layer replays that run after the timed phases.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "clock.hpp"
#include "core/modality.hpp"
#include "util/memstats.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

enum class Workload { kQuarterSaturated, kYearStreamFaulty };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload w);

/// Configuration of a workload's scenario. `spill_dir` receives the segment
/// log of year_stream_faulty and must exist.
[[nodiscard]] tg::ScenarioConfig scenario_config(Workload w,
                                                 std::uint64_t seed,
                                                 const std::string& spill_dir);

/// Streaming windows: 30 days, the window every analyst query uses too.
inline constexpr tg::Duration kWindow = 30 * tg::kDay;

/// One analyst query: a user's features over a 30-day window, classified.
struct Query {
  tg::UserId user;
  tg::SimTime from = 0;
  tg::SimTime to = 0;
};

struct Answer {
  int jobs = 0;
  double nu = 0.0;
  tg::Modality primary = tg::Modality::kCapacityBatch;
  bool operator==(const Answer&) const = default;
};

/// What the analysis phase produced, compared across passes.
struct AnalysisDigest {
  long report_jobs = 0;
  int report_users = 0;
  std::size_t series_windows = 0;
  long churn_transitions = 0;
  long scored_users = 0;
  double accuracy = 0.0;
  bool operator==(const AnalysisDigest&) const = default;
};

/// CPU and wall time of each phase of a pass, with the allocations made
/// during the run and the analysis. `setups` holds every set-up of the
/// pass (the last one built the scenario the pass runs) and `query_times`
/// every query.
struct PhaseTimes {
  std::vector<Interval> setups;
  Interval sim;
  Interval analyze;
  Interval queries;
  std::vector<Interval> query_times;
  tg::AllocStats sim_allocs;
  tg::AllocStats analyze_allocs;
};

/// One cold pass of a workload: set-up, the run, the analysis and the
/// queries, each on fresh state. The objects stay alive until the pass is
/// destroyed so checks and replays can read them.
struct Pass {
  Workload workload = Workload::kQuarterSaturated;
  std::unique_ptr<tg::Scenario> scenario;
  /// End of the simulated period; streaming windows tile it.
  tg::SimTime horizon = 0;
  /// End of the analysis range: one past the simulation's final clock.
  tg::SimTime analysis_end = 0;

  PhaseTimes times;
  AnalysisDigest digest;
  std::vector<Answer> answers;

  [[nodiscard]] const tg::Platform& platform() const {
    return scenario->platform();
  }
  [[nodiscard]] const tg::UsageDatabase& db() const { return scenario->db(); }
};

/// What one pass needs: the seed and a fresh, existing spill directory
/// (used by year_stream_faulty).
struct PassInputs {
  std::uint64_t seed = 0;
  std::string spill_dir;
};

/// Builds the pass's scenario `repeats` times, each on fresh state, and
/// keeps the last.
void run_setup(Pass& pass, const PassInputs& in, int repeats,
               Tracer& tracer);
void run_sim(Pass& pass, Tracer& tracer);
void run_analyze(Pass& pass, Tracer& tracer);
void run_queries(Pass& pass, const std::vector<Query>& queries,
                 Tracer& tracer);

/// `n` seeded queries, each about the owner of a job record picked at
/// random, over the 30 days up to and including that record's end, so no
/// query has an empty window.
[[nodiscard]] std::vector<Query> make_queries(const tg::UsageDatabase& db,
                                              std::uint64_t seed,
                                              std::size_t n);

/// Record pointers of one database, each stream in end-time order.
struct RecordSet {
  std::vector<const tg::JobRecord*> jobs;
  std::vector<const tg::TransferRecord*> transfers;
  std::vector<const tg::SessionRecord*> sessions;
};
[[nodiscard]] RecordSet collect_records(const tg::UsageDatabase& db);

/// Operations attempted and failed, with a line per failure.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
  void count(std::uint64_t attempts, std::uint64_t failures_seen,
             const std::string& what) {
    attempted += attempts;
    failed += failures_seen;
    if (failures_seen > 0) failures.push_back(what);
  }
};

/// Checks on the final pass: query answers against a brute-force scan and
/// the workload's own invariants.
void check_final_pass(const Pass& pass, const RecordSet& records,
                      const std::vector<Query>& queries, Tally& tally);

/// Named metric values in insertion order.
class Metrics {
 public:
  void set(std::string name, double value, std::string unit) {
    entries_.push_back({std::move(name), value, std::move(unit)});
  }
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Re-drives single layers from the final pass's own records and adds the
/// per-layer metrics they yield. Runs after every timed phase. Lines the
/// SWF parser skips count as failed ingest operations in `tally`.
void run_replays(const Pass& pass, const RecordSet& records,
                 const std::vector<Query>& queries,
                 const std::string& spill_dir, Tracer& tracer,
                 Metrics& metrics, Tally& tally);

}  // namespace perfbench
