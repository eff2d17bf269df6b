// Figure 10 reproduction: expected access latency, normalized to the
// optimal (no-index) latency, as a function of packet capacity, for the
// UNIFORM / HOSPITAL / PARK datasets and all four index structures.
//
// Paper shape to verify: trian/trap-tree several times optimal; D-tree
// ~1.5x optimal and flat; D-tree <= R*-tree everywhere, clearly better at
// small packets.

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dtree::bench;
  const BenchFlags flags = ParseFlags(argc, argv);
  auto datasets = LoadDatasets(flags);
  if (!datasets.ok()) {
    std::fprintf(stderr, "%s\n", datasets.status().ToString().c_str());
    return 1;
  }
  std::printf("== Figure 10: expected access latency (normalized to "
              "optimal = half a pure-data cycle) ==\n");
  std::printf("queries per cell: %d, seed %llu\n", flags.queries,
              static_cast<unsigned long long>(flags.seed));
  BenchRecorder recorder("bench_fig10_access_latency", flags);
  for (const auto& ds : datasets.value()) {
    PrintFigureTable("Fig.10 normalized access latency", ds, flags,
                     &recorder,
                     [](const dtree::bcast::ExperimentResult& r) {
                       return r.normalized_latency;
                     });
  }
  recorder.Flush();
  return 0;
}
