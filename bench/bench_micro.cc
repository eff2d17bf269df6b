// Micro-benchmarks (google-benchmark): index construction cost and
// in-memory query throughput for all four structures, plus the Voronoi
// substrate. These measure wall-clock performance of this implementation
// (the paper's metrics are packet counts, covered by the figure benches).
//
// D-tree flat-arena probe throughput (EXPERIMENTS.md E14): passing
// --bench-json=PATH switches on a self-verifying measurement pass that
// pits the D-tree's per-probe byte decoder against its flat-arena engine
// (DESIGN.md §12) on SCALE-U subdivisions up to N=100k, then writes the
// ns/probe table to PATH through the shared BenchRecorder (one cell per
// N, plus the host block). Before any timing, every configuration is
// checked query-by-query against the byte decoder — the bit-identical
// oracle — and any mismatch exits nonzero, so a CI bench run doubles as
// a correctness gate. Remaining arguments pass through to
// google-benchmark (use --benchmark_filter=NONE to run only the
// measurement pass).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "baselines/kirkpatrick/kirkpatrick.h"
#include "baselines/rstar/rstar.h"
#include "baselines/trapmap/trapmap.h"
#include "broadcast/experiment.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "dtree/arena.h"
#include "dtree/dtree.h"
#include "dtree/serialize.h"
#include "subdivision/voronoi.h"
#include "bench_util.h"
#include "workload/datasets.h"

namespace {

using namespace dtree;

const sub::Subdivision& SharedSubdivision(int n) {
  static auto* cache =
      new std::map<int, sub::Subdivision>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    Rng rng(99);
    const geom::BBox area = workload::DefaultServiceArea();
    auto pts = workload::UniformPoints(n, area, &rng);
    auto sub = sub::BuildVoronoiSubdivision(pts, area);
    it = cache->emplace(n, std::move(sub).value()).first;
  }
  return it->second;
}

void BM_VoronoiBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  const geom::BBox area = workload::DefaultServiceArea();
  auto pts = workload::UniformPoints(n, area, &rng);
  for (auto _ : state) {
    auto sub = sub::BuildVoronoiSubdivision(pts, area);
    benchmark::DoNotOptimize(sub);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_VoronoiBuild)->Arg(100)->Arg(500)->Arg(1000);

void BM_DTreeBuild(benchmark::State& state) {
  const sub::Subdivision& sub = SharedSubdivision(
      static_cast<int>(state.range(0)));
  core::DTree::Options o;
  o.packet_capacity = 256;
  for (auto _ : state) {
    auto tree = core::DTree::Build(sub, o);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_DTreeBuild)->Arg(100)->Arg(500)->Arg(1000);

void BM_RStarBuild(benchmark::State& state) {
  const sub::Subdivision& sub = SharedSubdivision(
      static_cast<int>(state.range(0)));
  baselines::RStarTree::Options o;
  o.packet_capacity = 256;
  for (auto _ : state) {
    auto tree = baselines::RStarTree::Build(sub, o);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_RStarBuild)->Arg(100)->Arg(500)->Arg(1000);

void BM_TrapMapBuild(benchmark::State& state) {
  const sub::Subdivision& sub = SharedSubdivision(
      static_cast<int>(state.range(0)));
  baselines::TrapMap::Options o;
  o.packet_capacity = 256;
  for (auto _ : state) {
    auto map = baselines::TrapMap::Build(sub, o);
    benchmark::DoNotOptimize(map);
  }
}
BENCHMARK(BM_TrapMapBuild)->Arg(100)->Arg(500)->Arg(1000);

void BM_TrianTreeBuild(benchmark::State& state) {
  const sub::Subdivision& sub = SharedSubdivision(
      static_cast<int>(state.range(0)));
  baselines::TrianTree::Options o;
  o.packet_capacity = 256;
  for (auto _ : state) {
    auto tree = baselines::TrianTree::Build(sub, o);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_TrianTreeBuild)->Arg(100)->Arg(500)->Arg(1000);

constexpr uint64_t kQuerySeed = 5;

std::vector<geom::Point> SampleQueries(const sub::Subdivision& sub,
                                       size_t count) {
  Rng rng(kQuerySeed);
  const geom::BBox& a = sub.service_area();
  std::vector<geom::Point> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    queries.push_back({rng.Uniform(a.min_x, a.max_x),
                       rng.Uniform(a.min_y, a.max_y)});
  }
  return queries;
}

template <typename Index>
void QueryLoop(benchmark::State& state, const Index& index,
               const sub::Subdivision& sub) {
  const std::vector<geom::Point> queries = SampleQueries(sub, 1024);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Locate(queries[i & 1023]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_DTreeQuery(benchmark::State& state) {
  const sub::Subdivision& sub = SharedSubdivision(
      static_cast<int>(state.range(0)));
  core::DTree::Options o;
  o.packet_capacity = 256;
  auto tree = core::DTree::Build(sub, o);
  QueryLoop(state, tree.value(), sub);
}
BENCHMARK(BM_DTreeQuery)->Arg(100)->Arg(1000);

void BM_RStarQuery(benchmark::State& state) {
  const sub::Subdivision& sub = SharedSubdivision(
      static_cast<int>(state.range(0)));
  baselines::RStarTree::Options o;
  o.packet_capacity = 256;
  auto tree = baselines::RStarTree::Build(sub, o);
  QueryLoop(state, tree.value(), sub);
}
BENCHMARK(BM_RStarQuery)->Arg(100)->Arg(1000);

void BM_TrapMapQuery(benchmark::State& state) {
  const sub::Subdivision& sub = SharedSubdivision(
      static_cast<int>(state.range(0)));
  baselines::TrapMap::Options o;
  o.packet_capacity = 256;
  auto map = baselines::TrapMap::Build(sub, o);
  QueryLoop(state, map.value(), sub);
}
BENCHMARK(BM_TrapMapQuery)->Arg(100)->Arg(1000);

void BM_TrianTreeQuery(benchmark::State& state) {
  const sub::Subdivision& sub = SharedSubdivision(
      static_cast<int>(state.range(0)));
  baselines::TrianTree::Options o;
  o.packet_capacity = 256;
  auto tree = baselines::TrianTree::Build(sub, o);
  QueryLoop(state, tree.value(), sub);
}
BENCHMARK(BM_TrianTreeQuery)->Arg(100)->Arg(1000);

// Per-probe byte decoding vs the flat arena on the same serialized cycle.
// Small-N spot checks for interactive runs; the --bench-json measurement
// pass covers the N=100k headline numbers with full verification.
void BM_DTreeProbeDecode(benchmark::State& state) {
  const sub::Subdivision& sub = SharedSubdivision(
      static_cast<int>(state.range(0)));
  core::DTree::Options o;
  o.packet_capacity = 256;
  auto tree = core::DTree::Build(sub, o).value();
  auto packets = core::SerializeDTreeFlat(tree).value();
  const std::vector<geom::Point> queries = SampleQueries(sub, 1024);
  std::vector<int> read;
  size_t i = 0;
  for (auto _ : state) {
    read.clear();
    benchmark::DoNotOptimize(core::QueryFromPackets(
        packets, 256, tree.options().early_termination, queries[i & 1023],
        &read));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DTreeProbeDecode)->Arg(1000);

void BM_DTreeProbeArena(benchmark::State& state) {
  const sub::Subdivision& sub = SharedSubdivision(
      static_cast<int>(state.range(0)));
  core::DTree::Options o;
  o.packet_capacity = 256;
  auto tree = core::DTree::Build(sub, o).value();
  auto packets = core::SerializeDTreeFlat(tree).value();
  auto arena =
      core::DTreeArena::Build(packets, 256, /*framed=*/false,
                              tree.options().early_termination,
                              tree.num_regions())
          .value();
  const std::vector<geom::Point> queries = SampleQueries(sub, 1024);
  bcast::ProbeTrace trace;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(arena.ProbeInto(queries[i & 1023], &trace));
    benchmark::DoNotOptimize(trace.region);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DTreeProbeArena)->Arg(1000);

// Sharded experiment driver end to end; Arg = thread count. Compares the
// pool dispatch overhead and scaling of the full query loop (sample ->
// probe -> channel simulation) at a fixed 500-region workload.
void BM_RunExperimentThreads(benchmark::State& state) {
  const sub::Subdivision& sub = SharedSubdivision(500);
  core::DTree::Options o;
  o.packet_capacity = 256;
  auto tree = core::DTree::Build(sub, o);
  bcast::ExperimentOptions opt;
  opt.packet_capacity = 256;
  opt.num_queries = 20000;
  opt.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto res = bcast::RunExperiment(tree.value(), sub, nullptr, opt);
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(state.iterations() * opt.num_queries);
}
BENCHMARK(BM_RunExperimentThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Raw pool dispatch cost: trivial tasks, so the time is all handoff.
void BM_ThreadPoolParallelFor(benchmark::State& state) {
  ThreadPool pool(static_cast<int>(state.range(0)));
  std::atomic<int64_t> sink{0};
  for (auto _ : state) {
    pool.ParallelFor(64, [&](int i) {
      sink.fetch_add(i, std::memory_order_relaxed);
    });
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ThreadPoolParallelFor)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// ---------------------------------------------------------------------------
// --bench-json measurement pass: D-tree decode-per-probe vs flat arena,
// verified.
// ---------------------------------------------------------------------------

constexpr int kVerifyQueries = 4096;
constexpr int kPacketCapacity = 256;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Quartiles of the ns per call over TimeProbeNs's timing windows.
struct ProbeTiming {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

constexpr int kTimingWindows = 7;
constexpr double kWindowSeconds = 0.15;

/// Times fn(query) over the query set in kTimingWindows windows of
/// ~kWindowSeconds each; returns the quartiles of the windows' mean ns per
/// call, so one noisy window cannot move the recorded figure.
template <typename Fn>
ProbeTiming TimeProbeNs(const std::vector<geom::Point>& queries, Fn&& fn) {
  const size_t nq = queries.size();
  for (size_t i = 0; i < nq; ++i) fn(queries[i]);  // warm caches
  std::vector<double> ns(kTimingWindows);
  for (double& window_ns : ns) {
    int64_t calls = 0;
    const double start = NowSeconds();
    double elapsed = 0.0;
    do {
      for (size_t i = 0; i < nq; ++i) fn(queries[i]);
      calls += static_cast<int64_t>(nq);
      elapsed = NowSeconds() - start;
    } while (elapsed < kWindowSeconds);
    window_ns = elapsed * 1e9 / static_cast<double>(calls);
  }
  std::sort(ns.begin(), ns.end());
  return {ns[kTimingWindows / 4], ns[kTimingWindows / 2],
          ns[3 * kTimingWindows / 4]};
}

/// Compares the D-tree byte decoder (oracle) against the arena on every
/// query: region, packet log and failure code must all agree. Prints the
/// first divergence and returns false.
bool VerifyArena(int n, const bcast::PacketBuffer& packets,
                 bool early_termination, const core::DTreeArena& arena,
                 const std::vector<geom::Point>& queries) {
  std::vector<int> read;
  bcast::ProbeTrace trace;
  for (size_t i = 0; i < queries.size(); ++i) {
    const geom::Point& p = queries[i];
    read.clear();
    const Result<int> oracle = core::QueryFromPackets(
        packets, kPacketCapacity, early_termination, p, &read);
    const Status st = arena.ProbeInto(p, &trace);
    if (!oracle.ok() || !st.ok()) {
      if (oracle.ok() != st.ok() || oracle.status().code() != st.code()) {
        std::fprintf(stderr,
                     "FAIL dtree n=%d query %zu: oracle '%s' vs arena '%s'\n",
                     n, i,
                     oracle.ok() ? "ok" : oracle.status().ToString().c_str(),
                     st.ok() ? "ok" : st.ToString().c_str());
        return false;
      }
      continue;  // both failed identically (e.g. NotFound outside area)
    }
    if (oracle.value() != trace.region) {
      std::fprintf(stderr,
                   "FAIL dtree n=%d query %zu (%.17g, %.17g): oracle region "
                   "%d vs arena region %d\n",
                   n, i, p.x, p.y, oracle.value(), trace.region);
      return false;
    }
    if (read != trace.packets) {
      std::fprintf(stderr,
                   "FAIL dtree n=%d query %zu: packet log diverges "
                   "(oracle %zu packets, arena %zu)\n",
                   n, i, read.size(), trace.packets.size());
      return false;
    }
  }
  return true;
}

/// Builds the D-tree arena for `sub`, verifies it against the decoder,
/// times both engines and records one cell.
bool MeasureDTree(const sub::Subdivision& sub, int n,
                  bench::BenchRecorder* recorder) {
  const auto t0 = std::chrono::steady_clock::now();
  core::DTree::Options o;
  o.packet_capacity = kPacketCapacity;
  auto tree_r = core::DTree::Build(sub, o);
  if (!tree_r.ok()) return false;
  const core::DTree& tree = tree_r.value();
  const bool early = tree.options().early_termination;
  auto packets_r = core::SerializeDTreeFlat(tree);
  if (!packets_r.ok()) return false;
  const bcast::PacketBuffer& packets = packets_r.value();
  auto arena_r = core::DTreeArena::Build(packets, kPacketCapacity,
                                         /*framed=*/false, early,
                                         tree.num_regions());
  if (!arena_r.ok()) return false;
  const core::DTreeArena& arena = arena_r.value();
  const auto queries = SampleQueries(sub, kVerifyQueries);
  if (!VerifyArena(n, packets, early, arena, queries)) return false;

  std::vector<int> read;
  const ProbeTiming decode = TimeProbeNs(queries, [&](const geom::Point& p) {
    read.clear();
    benchmark::DoNotOptimize(
        core::QueryFromPackets(packets, kPacketCapacity, early, p, &read));
  });
  bcast::ProbeTrace trace;
  const ProbeTiming arena_t = TimeProbeNs(queries, [&](const geom::Point& p) {
    benchmark::DoNotOptimize(arena.ProbeInto(p, &trace));
  });
  const double decode_ns = decode.median, arena_ns = arena_t.median;
  const double speedup = decode_ns / arena_ns;
  std::printf("dtree n=%-7d decode %8.1f ns/probe   arena %8.1f ns/probe   "
              "speedup %5.2fx   arena %zu bytes\n",
              n, decode_ns, arena_ns, speedup, arena.ArenaBytes());
  std::fflush(stdout);

  char extra[512];
  std::snprintf(extra, sizeof(extra),
                ", \"index\": \"dtree\", \"n\": %d, "
                "\"packet_capacity\": %d, \"decode_ns_per_probe\": %.1f, "
                "\"decode_ns_q1\": %.1f, \"decode_ns_q3\": %.1f, "
                "\"arena_ns_per_probe\": %.1f, \"arena_ns_q1\": %.1f, "
                "\"arena_ns_q3\": %.1f, \"timing_windows\": %d, "
                "\"speedup\": %.2f, "
                "\"arena_bytes\": %zu, \"verified_queries\": %d",
                n, kPacketCapacity, decode_ns, decode.q1, decode.q3,
                arena_ns, arena_t.q1, arena_t.q3, kTimingWindows, speedup,
                arena.ArenaBytes(), kVerifyQueries);
  recorder->Record("SCALE-U" + std::to_string(n) + "/dtree",
                   bench::SecondsSince(t0), 1e9 / arena_ns,
                   /*cell_threads=*/1, bench::CellPercentiles{}, extra);
  return true;
}

/// Runs the verified decode-vs-arena measurement matrix and writes the
/// JSON table. Returns false (-> nonzero exit) on any verification
/// failure: a configuration is timed and recorded only after the arena
/// agrees with the byte decoder on every sampled query.
bool RunProbeThroughputPass(const std::string& json_path) {
  bench::BenchFlags flags;
  flags.queries = kVerifyQueries;
  flags.seed = kQuerySeed;
  flags.threads = 1;
  flags.bench_json = json_path;
  bench::BenchRecorder recorder("bench_micro dtree arena probe throughput",
                                flags);
  for (int n : {1000, 20000, 100000}) {
    auto ds = workload::MakeScaleDataset(
        n, workload::ScaleDistribution::kUniform);
    if (!ds.ok()) {
      std::fprintf(stderr, "SCALE-U%d build failed: %s\n", n,
                   ds.status().ToString().c_str());
      return false;
    }
    if (!MeasureDTree(ds.value().subdivision, n, &recorder)) return false;
  }
  recorder.Flush();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  // Strip --bench-json=PATH before google-benchmark sees the arguments.
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    constexpr const char kFlag[] = "--bench-json=";
    if (std::strncmp(argv[i], kFlag, sizeof(kFlag) - 1) == 0) {
      json_path = argv[i] + sizeof(kFlag) - 1;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!json_path.empty() && !RunProbeThroughputPass(json_path)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
