// Figure 11 reproduction: index sizes normalized to the database size
// (N x 1 KB), as a function of packet capacity, for the PARK dataset
// (plus any other dataset requested via --datasets=).
//
// Paper shape to verify: trap-tree >> trian-tree >> D-tree ~ R*-tree; the
// relative order matches the access-latency order of Figure 10.

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dtree::bench;
  BenchFlags flags = ParseFlags(argc, argv);
  bool datasets_overridden = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--datasets=", 11) == 0) {
      datasets_overridden = true;
    }
  }
  if (!datasets_overridden) flags.datasets = {"PARK"};
  // Index size does not depend on the query load.
  flags.queries = 1;
  auto datasets = LoadDatasets(flags);
  if (!datasets.ok()) {
    std::fprintf(stderr, "%s\n", datasets.status().ToString().c_str());
    return 1;
  }
  std::printf("== Figure 11: index size normalized to database size ==\n");
  // No query load here, so the recorded cells time index construction
  // (qps field holds regions indexed per second).
  BenchRecorder recorder("bench_fig11_index_size", flags);
  for (const auto& ds : datasets.value()) {
    std::printf("\nFig.11 normalized index size — dataset %s (N=%d)\n",
                ds.name.c_str(), ds.subdivision.NumRegions());
    std::printf("%-10s", "packet");
    for (IndexKind k : kAllKinds) std::printf(" %12s", KindName(k));
    std::printf(" %14s\n", "(d-tree pkts)");
    for (int capacity : flags.capacities) {
      std::printf("%-10d", capacity);
      int dtree_packets = 0;
      for (IndexKind k : kAllKinds) {
        const auto t0 = std::chrono::steady_clock::now();
        auto index = BuildIndex(k, ds.subdivision, capacity);
        const double wall_s = SecondsSince(t0);
        recorder.Record("build:" + ds.name + "/" + KindName(k) + "/cap" +
                            std::to_string(capacity),
                        wall_s,
                        ds.subdivision.NumRegions() / std::max(wall_s, 1e-12));
        if (!index.ok()) {
          std::printf(" %12s", "ERR");
          continue;
        }
        const double db_bytes =
            static_cast<double>(ds.subdivision.NumRegions()) *
            dtree::bcast::kDataInstanceSize;
        const double packets_bytes =
            static_cast<double>(index.value()->NumIndexPackets()) * capacity;
        std::printf(" %12.3f", packets_bytes / db_bytes);
        if (k == IndexKind::kDTree) {
          dtree_packets = index.value()->NumIndexPackets();
        }
      }
      std::printf(" %14d\n", dtree_packets);
    }
  }
  recorder.Flush();
  return 0;
}
