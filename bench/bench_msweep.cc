// (1, m) interleaving sweep: measures D-tree access latency as a function
// of the index-repetition factor m and marks the analytic optimum
// m* = sqrt(data_packets / index_packets) from Imielinski et al., "Data on
// air". Validates that the channel simulator reproduces the classic
// latency/m trade-off (more repetitions = shorter probe wait, longer
// cycle).

#include <cmath>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dtree::bench;
  BenchFlags flags = ParseFlags(argc, argv);
  auto datasets = LoadDatasets(flags);
  if (!datasets.ok()) {
    std::fprintf(stderr, "%s\n", datasets.status().ToString().c_str());
    return 1;
  }
  std::printf("== (1, m) sweep: D-tree normalized latency vs m ==\n");
  BenchRecorder recorder("bench_msweep", flags);
  for (const auto& ds : datasets.value()) {
    for (int capacity : flags.capacities) {
      dtree::core::DTree::Options o;
      o.packet_capacity = capacity;
      auto tree = dtree::core::DTree::Build(ds.subdivision, o);
      if (!tree.ok()) continue;
      const double ratio =
          static_cast<double>(ds.subdivision.NumRegions()) *
          std::ceil(1024.0 / capacity) / tree.value().NumIndexPackets();
      const int m_star = std::max(1, (int)std::lround(std::sqrt(ratio)));
      std::printf("\n%s, packet %d (index %d packets, m* = %d):\n",
                  ds.name.c_str(), capacity, tree.value().NumIndexPackets(),
                  m_star);
      std::printf("  %-6s %-10s %-10s %-9s %-9s\n", "m", "latency",
                  "tuning", "wall(s)", "kqps");
      for (int m : {1, 2, 3, 4, 6, 8, 12, 16, 24, 32}) {
        if (m > ds.subdivision.NumRegions()) break;
        dtree::bcast::ExperimentOptions opt;
        const std::string cell = ds.name + "/d-tree/cap" +
                                 std::to_string(capacity) + "/m" +
                                 std::to_string(m);
        opt.packet_capacity = capacity;
        opt.num_queries = flags.queries;
        opt.seed = flags.seed;
        opt.m = m;
        opt.num_threads = flags.threads;
        AttachTrace(flags, cell, &opt);
        const auto t0 = std::chrono::steady_clock::now();
        auto res = dtree::bcast::RunExperiment(tree.value(), ds.subdivision,
                                               nullptr, opt);
        const double wall_s = SecondsSince(t0);
        if (!res.ok()) continue;
        const double qps = flags.queries / std::max(wall_s, 1e-12);
        recorder.Record(cell, wall_s, qps, 0,
                        CellPercentiles::From(res.value()));
        std::printf("  %-6d %-10.3f %-10.3f %-9.3f %-9.1f%s\n", m,
                    res.value().normalized_latency,
                    res.value().mean_tuning_index, wall_s, qps / 1000.0,
                    m == m_star ? "   <- m*" : "");
      }
    }
  }
  recorder.Flush();
  return 0;
}
