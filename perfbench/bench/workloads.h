// The benchmark's four workloads and what one run of them reports.
//
// A workload builds all of its inputs from the run's seed (the library only
// ever sees the generated sites, points and option values), times its
// set-up several times, then repeats one deterministic unit of work through
// the library's public entry points until the requested seconds have been
// measured. Host costs (wall, CPU, RSS) vary run to run; the simulated
// statistics of a unit are a pure function of the seed, so every repetition
// must reproduce them bit for bit.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "layers.h"
#include "measure.h"

namespace perfbench {

/// Set-ups per untraced run; setup_s is their median.
inline constexpr int kSetupRepeats = 9;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int threads = 1;  ///< num_threads for every entry-point call (nproc)
};

/// What a broadcast client experiences in one unit, in packets.
struct SimStats {
  int64_t queries = 0;
  double tuning_mean = 0.0;
  double latency_mean = 0.0;
  double latency_p99 = 0.0;
  int64_t give_ups = 0;
  bool operator==(const SimStats&) const = default;
};

/// Host cost of one timed repetition of the unit.
struct Rep {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  int64_t queries = 0;
};

/// One correctness check, run outside the timed section. Every failed
/// check counts as a failed operation.
struct Gate {
  std::string name;
  int64_t checked = 0;
  int64_t failed = 0;
  std::string detail;
};

/// Everything the untraced run measures.
struct Outcome {
  std::vector<double> setup_s;   ///< one entry per set-up repetition
  std::vector<Rep> reps;         ///< timed repetitions of the unit
  std::vector<double> commit_s;  ///< live-updates: every timed commit
  SimStats sim;                  ///< the unit's simulated statistics
  int64_t attempted = 0;         ///< timed queries + commits
  int64_t failed = 0;            ///< failed calls + failed checks
  std::vector<Gate> gates;
  std::vector<std::string> notes;  ///< extra report lines
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every input and structure from the seed, replacing any
  /// earlier build. Records spans into `rec` when it is enabled.
  virtual dtree::Status Setup(SpanRecorder* rec) = 0;
  /// The timed section: repeats the unit for about `seconds`, calling
  /// `between_reps` after each repetition, outside its timing.
  virtual dtree::Status Measure(double seconds, Outcome* out,
                                const std::function<void()>& between_reps) = 0;
  /// Correctness gates, after the timed section.
  virtual void Check(Outcome* out) = 0;
  /// The traced run's body, after a traced Setup(): the unit once
  /// untraced and once traced, plus the layer replays.
  virtual dtree::Status Trace(SpanRecorder* rec, TraceReport* report) = 0;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
