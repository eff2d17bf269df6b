#include "layers.h"

#include <algorithm>
#include <vector>

#include "broadcast/frame.h"
#include "common/crc32.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "dtree/arena.h"
#include "dtree/serialize.h"

namespace perfbench {
namespace {

using dtree::Result;
using dtree::Rng;
using dtree::Status;
namespace bcast = dtree::bcast;
namespace geom = dtree::geom;

/// Query points replayed per layer, and the least time a replay span
/// runs (whole passes over the sample are repeated until it is reached).
constexpr int kReplayQueries = 4096;
constexpr double kReplayMinSeconds = 0.15;
/// Cache replay: this many clients each walk this many steps.
constexpr int kCacheClients = 64;
constexpr int kCacheSteps = 64;

/// Runs `pass`, which makes `calls` calls, inside span `name` until
/// kReplayMinSeconds have elapsed; returns nanoseconds per call.
template <typename Fn>
double TimedLoop(SpanRecorder* rec, const std::string& name, size_t calls,
                 Fn&& pass) {
  ScopedSpan span(rec, name);
  const double t0 = WallSeconds();
  int64_t passes = 0;
  double elapsed = 0.0;
  do {
    pass();
    ++passes;
    elapsed = WallSeconds() - t0;
  } while (elapsed < kReplayMinSeconds);
  return elapsed * 1e9 /
         (static_cast<double>(passes) * static_cast<double>(calls));
}

}  // namespace

const std::vector<LayerMetric>& LayerMetrics() {
  static const std::vector<LayerMetric> kMetrics = {
      {"workload.dataset_s", "s"},
      {"workload.sample_ns", "ns"},
      {"workload.mobility_step_ns", "ns"},
      {"subdivision.voronoi_s", "s"},
      {"subdivision.stitch_s", "s"},
      {"dtree.partition_s", "s"},
      {"dtree.paging_s", "s"},
      {"dtree.materialize_s", "s"},
      {"dtree.commit_unattributed_s", "s"},
      {"dtree.probe_ns", "ns"},
      {"dtree.probe_packets", "packets"},
      {"dtree.arena_probe_ns", "ns"},
      {"baselines.rstar.build_s", "s"},
      {"baselines.trapmap.build_s", "s"},
      {"baselines.trian.build_s", "s"},
      {"baselines.rstar.probe_ns", "ns"},
      {"baselines.trapmap.probe_ns", "ns"},
      {"baselines.trian.probe_ns", "ns"},
      {"broadcast.experiment_s", "s"},
      {"broadcast.fleet_s", "s"},
      {"broadcast.fleet_versioned_s", "s"},
      {"broadcast.simulate_ns", "ns"},
      {"broadcast.fault_stream_ns", "ns"},
      {"broadcast.fault_streams_per_query", "count"},
      {"broadcast.retries_per_query", "count"},
      {"broadcast.telemetry_s", "s"},
      {"broadcast.rss_bytes_per_client", "bytes"},
      {"broadcast.cache_lookup_ns", "ns"},
      {"broadcast.cache_hit_share", "ratio"},
      {"broadcast.cache_entries_mean", "count"},
      {"broadcast.timeline_simulate_ns", "ns"},
      {"broadcast.epoch_switches_per_query", "count"},
      {"broadcast.frame_verify_ns", "ns"},
      {"common.rng_stream_ns", "ns"},
      {"common.histogram_add_ns", "ns"},
      {"common.parallel_for_us", "us"},
      {"common.crc32_ns_per_kb", "ns/KiB"},
      {"workload.sample_cpu_share", "ratio"},
      {"dtree.probe_cpu_share", "ratio"},
      {"broadcast.simulate_cpu_share", "ratio"},
      {"broadcast.fault_stream_cpu_share", "ratio"},
      {"broadcast.cache_cpu_share", "ratio"},
      {"broadcast.engine_cpu_share", "ratio"},
      {"trace.overhead_share", "ratio"},
      {"trace.unattributed_share", "ratio"},
  };
  return kMetrics;
}

dtree::Result<dtree::core::DTree> BuildDTreeTraced(
    const dtree::sub::Subdivision& sub, int capacity, SpanRecorder* rec) {
  dtree::core::DTree::Options opt;
  opt.packet_capacity = capacity;
  dtree::core::DTree::BuildTimings timings;
  ScopedSpan span(rec, "dtree.build");
  const double t0 = WallSeconds();
  auto tree = dtree::core::DTree::Build(sub, opt, &timings);
  const double t1 = WallSeconds();
  rec->AddChild("dtree.partition", t0, timings.partition_seconds);
  rec->AddChild("dtree.paging", t1 - timings.paging_seconds,
                timings.paging_seconds);
  return tree;
}

Status ReplayLayers(const ReplayInput& in, SpanRecorder* rec,
                    TraceReport* report) {
  auto& m = report->metrics;
  const bcast::BroadcastChannel& ch = *in.channel;

  // The sample, drawn like RunExperiment's shard 0: a point, then its
  // arrival, from one stream; each query keyed by its ordinal.
  std::vector<geom::Point> points(kReplayQueries);
  std::vector<double> arrivals(kReplayQueries);
  std::vector<uint64_t> streams(kReplayQueries);
  {
    Rng rng = Rng::ForStream(in.seed, 0);
    for (int i = 0; i < kReplayQueries; ++i) {
      points[i] = in.sampler->Draw(&rng);
      arrivals[i] = rng.Uniform(0.0, static_cast<double>(ch.cycle_packets()));
      streams[i] = static_cast<uint64_t>(i);
    }
  }

  m["workload.sample_ns"] =
      TimedLoop(rec, "workload.sample", kReplayQueries, [&] {
        Rng rng = Rng::ForStream(in.seed, 0);
        for (int i = 0; i < kReplayQueries; ++i) {
          const geom::Point p = in.sampler->Draw(&rng);
          DoNotOptimize(p);
        }
      });

  // Probe: one trace per sampled point, kept for the channel replays.
  Status err = Status::OK();
  std::vector<bcast::ProbeTrace> traces(kReplayQueries);
  double packets = 0.0;
  m["dtree.probe_ns"] = TimedLoop(rec, "dtree.probe", kReplayQueries, [&] {
    packets = 0.0;
    for (int i = 0; i < kReplayQueries; ++i) {
      const Status st = in.tree->ProbeInto(points[i], &traces[i]);
      if (!st.ok()) err = st;
      packets += static_cast<double>(traces[i].packets.size());
    }
  });
  DTREE_RETURN_IF_ERROR(err);
  m["dtree.probe_packets"] = packets / kReplayQueries;

  {
    dtree::Result<bcast::ArenaIndex> arena = [&] {
      ScopedSpan span(rec, "dtree.arena_build");
      return dtree::core::BuildDTreeArenaIndex(*in.tree);
    }();
    if (!arena.ok()) return arena.status();
    bcast::ProbeTrace t;
    m["dtree.arena_probe_ns"] =
        TimedLoop(rec, "dtree.arena_probe", kReplayQueries, [&] {
          for (int i = 0; i < kReplayQueries; ++i) {
            const Status st = arena.value().ProbeInto(points[i], &t);
            if (!st.ok()) err = st;
          }
        });
    DTREE_RETURN_IF_ERROR(err);
  }

  for (const auto& [name, index] : in.baselines) {
    bcast::ProbeTrace t;
    m["baselines." + name + ".probe_ns"] = TimedLoop(
        rec, "baselines." + name + ".probe", kReplayQueries, [&] {
          for (int i = 0; i < kReplayQueries; ++i) {
            const Status st = index->ProbeInto(points[i], &t);
            if (!st.ok()) err = st;
          }
        });
    DTREE_RETURN_IF_ERROR(err);
  }

  std::vector<double> latencies(kReplayQueries);
  m["broadcast.simulate_ns"] =
      TimedLoop(rec, "broadcast.simulate", kReplayQueries, [&] {
        for (int i = 0; i < kReplayQueries; ++i) {
          auto out = ch.Simulate(traces[i], arrivals[i], streams[i]);
          if (!out.ok()) {
            err = out.status();
            continue;
          }
          latencies[i] = out.value().latency;
        }
      });
  DTREE_RETURN_IF_ERROR(err);

  // One fault stream: a LossProcess keyed like the query's, re-keyed to
  // its first attempt, drawing once per read until the first loss — the
  // shape of one attempt of the fleet's ladder.
  const bcast::LossOptions& loss = ch.loss_options();
  m["broadcast.fault_stream_ns"] =
      TimedLoop(rec, "broadcast.fault_stream", kReplayQueries, [&] {
        for (int i = 0; i < kReplayQueries; ++i) {
          bcast::LossProcess lp(loss, streams[i]);
          lp.StartStream(bcast::LossProcess::AttemptStream(0));
          const int reads = static_cast<int>(traces[i].packets.size()) +
                            ch.bucket_packets();
          int first_lost = -1;
          for (int r = 0; r < reads && lp.enabled(); ++r) {
            if (lp.NextLost()) {
              first_lost = r;
              break;
            }
          }
          DoNotOptimize(first_lost);
        }
      });

  // Mobility walk and cache: each replay client walks from its own
  // stream; regions of the walk are located up front so the cache span
  // times only Lookup and, on a miss, Insert.
  const geom::BBox& area = in.subdivision->service_area();
  std::vector<geom::Point> walk(kCacheClients * kCacheSteps);
  m["workload.mobility_step_ns"] = TimedLoop(
      rec, "workload.mobility_step", walk.size(), [&] {
        for (int c = 0; c < kCacheClients; ++c) {
          dtree::workload::MobilityState state;
          Rng rng = Rng::ForStream(
              in.seed, dtree::workload::kMobilityStreamBase + c);
          for (int s = 0; s < kCacheSteps; ++s) {
            walk[c * kCacheSteps + s] =
                dtree::workload::MobilityStep(in.mobility, area, &state, &rng);
          }
        }
      });
  std::vector<int> walk_region(walk.size());
  for (size_t i = 0; i < walk.size(); ++i) {
    walk_region[i] = in.tree->Locate(walk[i]);
  }
  std::vector<geom::Polygon> polys;
  for (int r = 0; r < in.subdivision->NumRegions(); ++r) {
    polys.push_back(in.subdivision->RegionPolygon(r));
  }
  bcast::CacheOptions cache_opt = in.cache;
  cache_opt.enabled = true;
  double entries = 0.0;
  m["broadcast.cache_lookup_ns"] =
      TimedLoop(rec, "broadcast.cache_lookup", walk.size(), [&] {
        entries = 0.0;
        for (int c = 0; c < kCacheClients; ++c) {
          bcast::RegionCache cache(cache_opt);
          for (int s = 0; s < kCacheSteps; ++s) {
            const size_t i = static_cast<size_t>(c * kCacheSteps + s);
            if (cache.Lookup(walk[i]) == nullptr && walk_region[i] >= 0) {
              cache.Insert(polys[static_cast<size_t>(walk_region[i])],
                           walk_region[i], 0);
            }
            entries += static_cast<double>(cache.entries());
          }
        }
      });
  report->cache_entries_mean = entries / static_cast<double>(walk.size());

  // Timeline: the workload's versioned timeline, or one span over the
  // D-tree's channel (which plays exactly like Simulate).
  {
    std::vector<bcast::EpochSpan> single{{&ch, 0, 1}};
    dtree::Result<bcast::BroadcastTimeline> own =
        bcast::BroadcastTimeline::Create(single);
    if (!own.ok()) return own.status();
    const bcast::BroadcastTimeline& tl =
        in.timeline != nullptr ? *in.timeline : own.value();
    std::vector<const bcast::AirIndex*> indexes = in.timeline_indexes;
    if (in.timeline == nullptr) indexes = {in.tree};
    const double horizon = static_cast<double>(tl.span_start(
        tl.num_spans() - 1)) + static_cast<double>(tl.channel(
        tl.num_spans() - 1).cycle_packets());
    std::vector<std::vector<bcast::ProbeTrace>> per_query(kReplayQueries);
    std::vector<double> tl_arrivals(kReplayQueries);
    Rng rng = Rng::ForStream(in.seed, 1);
    for (int i = 0; i < kReplayQueries; ++i) {
      for (const bcast::AirIndex* index : indexes) {
        per_query[i].emplace_back();
        DTREE_RETURN_IF_ERROR(index->ProbeInto(points[i],
                                               &per_query[i].back()));
      }
      tl_arrivals[i] = rng.Uniform(0.0, horizon);
    }
    m["broadcast.timeline_simulate_ns"] = TimedLoop(
        rec, "broadcast.timeline_simulate", kReplayQueries, [&] {
          for (int i = 0; i < kReplayQueries; ++i) {
            auto out = tl.Simulate(per_query[i], tl_arrivals[i], streams[i]);
            if (!out.ok()) err = out.status();
          }
        });
    DTREE_RETURN_IF_ERROR(err);
  }

  // Framing: the D-tree's wire packets, CRC-framed with an epoch stamp.
  Result<std::vector<std::vector<uint8_t>>> wire =
      dtree::core::SerializeDTree(*in.tree);
  if (!wire.ok()) return wire.status();
  const std::vector<std::vector<uint8_t>> frames =
      bcast::FramePackets(wire.value(), /*epoch=*/1);
  size_t frame_bytes = 0;
  for (const auto& frame : frames) frame_bytes += frame.size();
  m["broadcast.frame_verify_ns"] =
      TimedLoop(rec, "broadcast.frame_verify", frames.size(), [&] {
        for (const auto& frame : frames) {
          if (!bcast::VerifyFrame(frame).ok()) {
            err = Status::Internal("a fresh frame fails VerifyFrame");
          }
        }
      });
  DTREE_RETURN_IF_ERROR(err);
  m["common.crc32_ns_per_kb"] =
      TimedLoop(rec, "common.crc32", 1, [&] {
        uint32_t acc = 0;
        for (const auto& frame : frames) {
          acc ^= dtree::Crc32(frame.data(), frame.size());
        }
        DoNotOptimize(acc);
      }) /
      (static_cast<double>(frame_bytes) / 1024.0);

  m["common.rng_stream_ns"] =
      TimedLoop(rec, "common.rng_stream", kReplayQueries, [&] {
        for (int i = 0; i < kReplayQueries; ++i) {
          Rng r = Rng::ForStream(in.seed, static_cast<uint64_t>(i));
          DoNotOptimize(r);
        }
      });

  m["common.histogram_add_ns"] =
      TimedLoop(rec, "common.histogram_add", latencies.size(), [&] {
        dtree::Histogram h;
        for (double v : latencies) h.Add(v);
        DoNotOptimize(h);
      });

  {
    dtree::ThreadPool pool(in.threads);
    constexpr int kCalls = 64;
    m["common.parallel_for_us"] =
        TimedLoop(rec, "common.parallel_for", kCalls, [&] {
          for (int i = 0; i < kCalls; ++i) pool.ParallelFor(64, [](int) {});
        }) /
        1e3;
  }
  return Status::OK();
}

void Attribute(const UnitCalls& calls, TraceReport* report) {
  auto& m = report->metrics;
  const double cpu_ns = report->unit_cpu_s * 1e9;
  const auto add = [&](const std::string& layer, double n, double ns) {
    Attribution a;
    a.layer = layer;
    a.calls = n;
    a.ns_per_call = ns;
    a.cpu_share = cpu_ns > 0.0 ? n * ns / cpu_ns : 0.0;
    report->attribution.push_back(a);
    return a.cpu_share;
  };
  double baseline_ns = 0.0;
  for (const char* b : {"rstar", "trapmap", "trian"}) {
    baseline_ns += m[std::string("baselines.") + b + ".probe_ns"];
  }
  const double sample =
      add("workload.sample", calls.samples, m["workload.sample_ns"]);
  const double walk = add("workload.mobility_step", calls.mobility_steps,
                          m["workload.mobility_step_ns"]);
  const double probe = add("dtree.probe", calls.probes, m["dtree.probe_ns"]);
  const double baselines =
      add("baselines.probe (3 indexes)", calls.baseline_probes,
                       baseline_ns);
  // Simulate builds its query's fault streams itself; count them once,
  // under fault_stream.
  const double own_streams =
      calls.simulates > 0.0 ? calls.fault_streams / calls.simulates : 0.0;
  const double simulate = add(
      "broadcast.simulate", calls.simulates,
      std::max(0.0, m["broadcast.simulate_ns"] -
                        own_streams * m["broadcast.fault_stream_ns"]));
  const double fault = add("broadcast.fault_stream", calls.fault_streams,
                           m["broadcast.fault_stream_ns"]);
  const double cache = add("broadcast.cache_lookup", calls.cache_lookups,
                           m["broadcast.cache_lookup_ns"]);
  m["workload.sample_cpu_share"] = sample + walk;
  m["dtree.probe_cpu_share"] = probe + baselines;
  m["broadcast.simulate_cpu_share"] = simulate;
  m["broadcast.fault_stream_cpu_share"] = fault;
  m["broadcast.cache_cpu_share"] = cache;
  m["broadcast.engine_cpu_share"] =
      1.0 - (sample + walk + probe + baselines + simulate + fault + cache);
}

}  // namespace perfbench
