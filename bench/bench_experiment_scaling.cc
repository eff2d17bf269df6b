// Thread-scaling bench for the parallel experiment driver: one large cell
// (1000-region Voronoi subdivision, 100k queries by default, D-tree at
// 256 B packets) run at increasing thread counts. Verifies at runtime that
// every thread count reproduces the single-thread metrics bit-for-bit
// (the shard/stream RNG guarantee), and records wall time / throughput /
// speedup per thread count into the BENCH json.
//
// Extra flag (on top of the shared ones): --regions=N (default 1000).

#include "bench_util.h"

#include "subdivision/voronoi.h"

int main(int argc, char** argv) {
  using namespace dtree::bench;
  int regions = 1000;
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--regions=", 10) == 0) {
      regions = std::atoi(argv[i] + 10);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  BenchFlags flags =
      ParseFlags(static_cast<int>(passthrough.size()), passthrough.data());
  flags.queries = flags.queries == 20000 ? 100000 : flags.queries;

  dtree::Rng rng(flags.seed);
  const dtree::geom::BBox area = dtree::workload::DefaultServiceArea();
  const auto pts = dtree::workload::UniformPoints(regions, area, &rng);
  auto sub_r = dtree::sub::BuildVoronoiSubdivision(pts, area);
  if (!sub_r.ok()) {
    std::fprintf(stderr, "%s\n", sub_r.status().ToString().c_str());
    return 1;
  }
  const dtree::sub::Subdivision& sub = sub_r.value();

  dtree::core::DTree::Options topt;
  topt.packet_capacity = 256;
  auto tree = dtree::core::DTree::Build(sub, topt);
  if (!tree.ok()) {
    std::fprintf(stderr, "%s\n", tree.status().ToString().c_str());
    return 1;
  }

  std::printf("== Experiment-driver thread scaling ==\n");
  std::printf("%d regions, %d queries, d-tree @ 256 B packets, "
              "%d hardware threads\n",
              sub.NumRegions(), flags.queries,
              dtree::ThreadPool::DefaultThreads());
  std::printf("%-8s %10s %12s %10s  %s\n", "threads", "wall(s)", "qps",
              "speedup", "deterministic");

  BenchRecorder recorder("bench_experiment_scaling", flags);
  double serial_wall = 0.0;
  dtree::bcast::ExperimentResult serial_res;
  bool all_match = true;
  for (int threads : {1, 2, 4, 8}) {
    const std::string cell = "voronoi" + std::to_string(sub.NumRegions()) +
                             "/d-tree/cap256/threads" +
                             std::to_string(threads);
    dtree::bcast::ExperimentOptions opt;
    opt.packet_capacity = 256;
    opt.num_queries = flags.queries;
    opt.seed = flags.seed;
    opt.num_threads = threads;
    AttachTrace(flags, cell, &opt);
    const auto t0 = std::chrono::steady_clock::now();
    auto res = dtree::bcast::RunExperiment(tree.value(), sub, nullptr, opt);
    const double wall_s = SecondsSince(t0);
    if (!res.ok()) {
      std::fprintf(stderr, "%s\n", res.status().ToString().c_str());
      return 1;
    }
    const double qps = flags.queries / std::max(wall_s, 1e-12);
    bool match = true;
    if (threads == 1) {
      serial_wall = wall_s;
      serial_res = res.value();
    } else {
      match = res.value().mean_latency == serial_res.mean_latency &&
              res.value().mean_tuning_index == serial_res.mean_tuning_index &&
              res.value().mean_tuning_total == serial_res.mean_tuning_total &&
              res.value().mean_tuning_noindex ==
                  serial_res.mean_tuning_noindex;
      all_match = all_match && match;
    }
    recorder.Record(cell, wall_s, qps, threads,
                    CellPercentiles::From(res.value()));
    std::printf("%-8d %10.3f %12.1f %9.2fx  %s\n", threads, wall_s, qps,
                serial_wall / std::max(wall_s, 1e-12),
                threads == 1 ? "(baseline)" : match ? "yes" : "NO");
  }
  if (!all_match) {
    std::fprintf(stderr,
                 "FAIL: results differ across thread counts — the "
                 "shard/stream determinism contract is broken\n");
    return 1;
  }
  recorder.Flush();
  return 0;
}
