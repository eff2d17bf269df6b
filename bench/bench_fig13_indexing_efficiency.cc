// Figure 13 reproduction: indexing efficiency — tuning time saved against
// the non-indexing scheme divided by the access-latency overhead the
// index adds — vs packet capacity.
//
// Paper shape to verify: D-tree best in all cases; trap-tree worst
// (enormous index); trian-tree between trap-tree and R*-tree.

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dtree::bench;
  const BenchFlags flags = ParseFlags(argc, argv);
  auto datasets = LoadDatasets(flags);
  if (!datasets.ok()) {
    std::fprintf(stderr, "%s\n", datasets.status().ToString().c_str());
    return 1;
  }
  std::printf("== Figure 13: indexing efficiency = (tuning saved) / "
              "(latency overhead) ==\n");
  std::printf("queries per cell: %d, seed %llu\n", flags.queries,
              static_cast<unsigned long long>(flags.seed));
  BenchRecorder recorder("bench_fig13_indexing_efficiency", flags);
  for (const auto& ds : datasets.value()) {
    PrintFigureTable("Fig.13 indexing efficiency", ds, flags, &recorder,
                     [](const dtree::bcast::ExperimentResult& r) {
                       return r.indexing_efficiency;
                     });
  }
  recorder.Flush();
  return 0;
}
