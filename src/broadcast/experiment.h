// Experiment driver: runs a query load against an air index over a
// (1, m) broadcast channel and aggregates the paper's three metrics.
//
// The driver is parallel but deterministic: the query stream is split into
// a fixed number of shards (independent of thread count), each shard draws
// from its own RNG stream (Rng::ForStream(seed, shard)) and accumulates
// partial sums privately, and partials are merged in shard order. The same
// (seed, num_queries) therefore produces bit-identical ExperimentResults
// for any ExperimentOptions::num_threads.

#ifndef DTREE_BROADCAST_EXPERIMENT_H_
#define DTREE_BROADCAST_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "broadcast/air_index.h"
#include "broadcast/channel.h"
#include "broadcast/region_cache.h"
#include "broadcast/trace.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "geom/cell_table.h"
#include "subdivision/subdivision.h"
#include "workload/mobility.h"

namespace dtree::bcast {

/// How query points are drawn.
enum class QueryDistribution {
  /// Uniform over data regions (each region equally likely, point uniform
  /// inside it) — the paper's "uniform access distribution over the data
  /// regions".
  kUniformRegion,
  /// Uniform over the service area.
  kUniformArea,
  /// Regions drawn with the probabilities in
  /// ExperimentOptions::region_weights (skewed-access experiments).
  kWeightedRegion,
};

struct ExperimentOptions {
  int packet_capacity = 0;
  /// Queries to run. 0 is a legal degenerate load: the run returns the
  /// channel-layout fields with every sum, mean, min and max pinned to
  /// zero (never NaN). Negative is InvalidArgument.
  int num_queries = 100000;
  uint64_t seed = 42;
  QueryDistribution distribution = QueryDistribution::kUniformRegion;
  /// Per-region access weights for kWeightedRegion (any non-negative
  /// scale, one entry per region).
  std::vector<double> region_weights;
  size_t data_instance_size = kDataInstanceSize;
  int m = 0;  ///< 0 = optimal
  /// Threads to run query shards on; 0 = hardware concurrency. Results do
  /// not depend on this value — only wall-clock time does.
  int num_threads = 0;
  /// Channel fault injection. Each query's loss process is keyed by its
  /// global index (loss.seed, query i), which the owning shard computes
  /// locally, so lossy results stay bit-identical across thread counts;
  /// with the model disabled (or loss rate 0) every QueryOutcome matches
  /// the lossless path bit-for-bit.
  LossOptions loss;
  /// Opt-in per-query tracing (not owned). Each shard buffers its
  /// queries' traces privately; after the parallel section the driver
  /// replays them into the sink ordered by global query index, so the
  /// sink sees one identical, single-threaded event stream for any
  /// num_threads. Tracing is observational only: enabling it changes no
  /// metric bit (it draws nothing from any RNG).
  TraceSink* trace_sink = nullptr;
  /// Opt-in moving-client workload: each query shard becomes one mobile
  /// client whose consecutive query points follow a mobility walk
  /// (workload/mobility.h) instead of i.i.d. draws. The walk draws only
  /// from its dedicated stream family (kMobilityStreamBase + shard), so
  /// mobility-off runs are bit-identical to today.
  workload::MobilityOptions mobility;
  /// Opt-in per-shard semantic region cache (broadcast/region_cache.h):
  /// consulted before probing / tuning in; a hit costs zero latency and
  /// zero tuning. The cache draws no RNG, and with cache.enabled false
  /// the run is bit-identical to today.
  CacheOptions cache;
};

/// Histogram names under which RunExperiment records per-query
/// distributions in ExperimentResult::metrics.
inline constexpr char kLatencyHist[] = "latency";
inline constexpr char kTuningIndexHist[] = "tuning_index";
inline constexpr char kTuningTotalHist[] = "tuning_total";
inline constexpr char kRetriesHist[] = "retries";
inline constexpr char kLostPacketsHist[] = "lost_packets";
inline constexpr char kCorruptedPacketsHist[] = "corrupted_packets";

/// Draws query points for a distribution; precomputes the cumulative
/// weight table once so skewed loads sample in O(log N), and builds one
/// geom::CellTable of every region so the per-draw rejection loop never
/// copies vertices and mostly skips Polygon::Contains's square roots. The
/// table answers exactly as Polygon::Contains does, so every accepted
/// point and the RNG stream are those of the plain polygon test. Draw() is
/// const and safe to call concurrently with distinct Rngs.
class QuerySampler {
 public:
  /// Fails when kWeightedRegion is requested with a missing or malformed
  /// weight vector.
  static Result<QuerySampler> Create(const sub::Subdivision& subdivision,
                                     QueryDistribution distribution,
                                     std::vector<double> weights);

  geom::Point Draw(Rng* rng) const;

 private:
  QuerySampler(const sub::Subdivision& subdivision,
               QueryDistribution distribution, std::vector<double> cumulative,
               geom::CellTable cells)
      : sub_(subdivision), distribution_(distribution),
        cumulative_(std::move(cumulative)), cells_(std::move(cells)) {}

  geom::Point DrawInRegion(int region, Rng* rng) const;

  const sub::Subdivision& sub_;
  QueryDistribution distribution_;
  std::vector<double> cumulative_;  ///< kWeightedRegion only
  geom::CellTable cells_;           ///< empty for kUniformArea
};

/// Aggregated results of one (index, dataset, packet-capacity) cell.
struct ExperimentResult {
  std::string index_name;
  int packet_capacity = 0;
  int m = 0;
  int index_packets = 0;
  size_t index_bytes = 0;
  int64_t data_packets = 0;
  int64_t cycle_packets = 0;

  double mean_latency = 0.0;            ///< packets
  double optimal_latency = 0.0;         ///< data_packets / 2
  double normalized_latency = 0.0;      ///< mean / optimal (Fig. 10)
  double mean_tuning_index = 0.0;       ///< packets, index search (Fig. 12)
  double mean_tuning_total = 0.0;       ///< probe + index + data
  double mean_tuning_noindex = 0.0;     ///< listening without an index
  /// (tuning saved) / (latency overhead) — Fig. 13.
  double indexing_efficiency = 0.0;
  /// Index size / database size (Fig. 11).
  double normalized_index_size = 0.0;

  // Lossy-channel statistics; all zero when ExperimentOptions::loss is
  // disabled (or never fires). Unrecoverable queries stay included in the
  // mean latency/tuning (their latency measures time until giving up).
  double mean_retries = 0.0;            ///< re-tunes per query
  double mean_lost_packets = 0.0;       ///< erased reads per query
  double mean_corrupted_packets = 0.0;  ///< CRC-rejected reads per query
  int64_t total_retries = 0;
  int64_t total_corrupted_packets = 0;
  int64_t unrecoverable_queries = 0;
  /// Queries answered (or abandoned) through the fallback linear scan.
  int64_t fallback_queries = 0;

  // Region-cache statistics (broadcast/region_cache.h); all zero when
  // ExperimentOptions::cache is disabled. Hits are counted in every mean
  // above with zero latency and zero tuning — that IS the saving.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  int64_t cache_invalidations = 0;

  // Distribution statistics. The means above describe the average client;
  // a mobile client's energy budget is set by the tail, so the driver
  // also records per-query histograms (see the k*Hist names) from which
  // p50/p95/p99 are derived. Min/max are exact; histogram percentiles are
  // bucket-approximate (<= ~9% relative error) and, being derived from
  // integer bucket counts merged in shard order, identical for any thread
  // count and any shard execution order.
  double min_latency = 0.0;             ///< packets, exact
  double max_latency = 0.0;
  double min_tuning_total = 0.0;        ///< packets, exact
  double max_tuning_total = 0.0;
  /// Per-query distributions: kLatencyHist, kTuningIndexHist,
  /// kTuningTotalHist, kRetriesHist, kLostPacketsHist,
  /// kCorruptedPacketsHist.
  MetricsRegistry metrics;
};

/// Runs the experiment. Every query is answered through the index's Probe
/// and simulated on the channel; results are validated against the
/// brute-force locator when `oracle` is non-null (mismatches fail the run,
/// except for points within geom::kMergeEps*100 of a region border where
/// the answer is numerically ambiguous).
///
/// Queries run on options.num_threads threads; `index` must honor the
/// AirIndex::Probe concurrency contract (all four structures in this
/// repository do).
Result<ExperimentResult> RunExperiment(const AirIndex& index,
                                       const sub::Subdivision& subdivision,
                                       const sub::PointLocator* oracle,
                                       const ExperimentOptions& options);

}  // namespace dtree::bcast

#endif  // DTREE_BROADCAST_EXPERIMENT_H_
