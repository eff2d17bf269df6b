// Per-layer measurements for the traced run.
//
// Spans are recorded only from the benchmark's own code, around calls into
// each module's public functions. An entry-point call (RunExperiment, RunFleet,
// RunFleetVersioned) is one opaque span, so the per-query layers inside it
// are timed by replaying a sample of queries drawn the way the workload
// draws them: each replay is one span around a loop of calls, and its
// per-call cost times the number of such calls the unit made estimates
// that layer's share of the unit's CPU time.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "broadcast/air_index.h"
#include "broadcast/channel.h"
#include "broadcast/experiment.h"
#include "broadcast/loss.h"
#include "broadcast/region_cache.h"
#include "broadcast/versioned.h"
#include "common/status.h"
#include "dtree/dtree.h"
#include "measure.h"
#include "subdivision/subdivision.h"
#include "workload/mobility.h"

namespace perfbench {

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in report order. A layer that does no work on
/// a workload reports 0 there.
const std::vector<LayerMetric>& LayerMetrics();

/// A layer inside the unit's entry-point calls: how many calls the unit
/// made (from its results) and what one call costs (from the replay).
struct Attribution {
  std::string layer;
  double calls = 0.0;
  double ns_per_call = 0.0;
  double cpu_share = 0.0;  ///< calls * ns_per_call / unit CPU time
};

struct TraceReport {
  std::map<std::string, double> metrics;  ///< keyed by LayerMetrics() name
  double untraced_unit_s = 0.0;
  double traced_unit_s = 0.0;
  double unit_cpu_s = 0.0;
  int64_t operations = 0;  ///< queries (and commits) the traced run made
  /// Mean cached entries over the cache replay's lookups.
  double cache_entries_mean = 0.0;
  std::vector<Attribution> attribution;
  std::vector<std::string> predictions;
};

/// Inputs of the layer replays. Pointers are borrowed; optional ones may
/// be null.
struct ReplayInput {
  uint64_t seed = 0;
  int threads = 1;
  const dtree::sub::Subdivision* subdivision = nullptr;
  const dtree::bcast::QuerySampler* sampler = nullptr;
  const dtree::core::DTree* tree = nullptr;
  /// The D-tree's channel, carrying the workload's loss options.
  const dtree::bcast::BroadcastChannel* channel = nullptr;
  /// Baseline indexes probed on the same points (paper only).
  std::vector<std::pair<std::string, const dtree::bcast::AirIndex*>>
      baselines;
  /// The walk the cache replay follows (the workload's own walk, or a
  /// Gaussian hop-16 walk when the workload has none).
  dtree::workload::MobilityOptions mobility;
  dtree::bcast::CacheOptions cache;
  /// Versioned timeline and one index per span; when null a single-span
  /// timeline over `channel` is replayed.
  const dtree::bcast::BroadcastTimeline* timeline = nullptr;
  std::vector<const dtree::bcast::AirIndex*> timeline_indexes;
};

/// Runs every per-call replay under `rec` and stores the per-call costs
/// in report->metrics (probe, simulate, fault stream, cache, sampling,
/// mobility, timeline, framing, and the common primitives). Framing is
/// timed on the D-tree's CRC-framed wire packets (FramePackets).
dtree::Status ReplayLayers(const ReplayInput& in, SpanRecorder* rec,
                           TraceReport* report);

/// How many calls of each replayed layer one unit made, derived
/// from its result.
struct UnitCalls {
  double samples = 0.0;         ///< QuerySampler::Draw
  double mobility_steps = 0.0;  ///< MobilityStep
  double probes = 0.0;          ///< D-tree probes
  double baseline_probes = 0.0; ///< per baseline index (paper)
  double simulates = 0.0;       ///< BroadcastChannel::Simulate
  double fault_streams = 0.0;   ///< LossProcess streams
  double cache_lookups = 0.0;   ///< RegionCache::Lookup
};

/// Fills report->attribution and the *_cpu_share metrics from the
/// per-call costs already in report->metrics.
void Attribute(const UnitCalls& calls, TraceReport* report);

/// Builds a D-tree inside span "dtree.build" with its partition and
/// paging phases recorded as child spans.
dtree::Result<dtree::core::DTree> BuildDTreeTraced(
    const dtree::sub::Subdivision& sub, int capacity, SpanRecorder* rec);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
