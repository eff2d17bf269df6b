// Figure 12 reproduction: tuning time (packet accesses during the index
// search step) vs packet capacity, for all datasets and indexes.
//
// Paper shape to verify: R*-tree worst everywhere (MBR overlap); D-tree
// beats trian/trap for packets > 256 B, slightly behind the trap-tree
// below 256 B; at large packets D-tree ~ half the trap-tree.

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dtree::bench;
  const BenchFlags flags = ParseFlags(argc, argv);
  auto datasets = LoadDatasets(flags);
  if (!datasets.ok()) {
    std::fprintf(stderr, "%s\n", datasets.status().ToString().c_str());
    return 1;
  }
  std::printf("== Figure 12: tuning time of the index search step "
              "(packets) ==\n");
  std::printf("queries per cell: %d, seed %llu\n", flags.queries,
              static_cast<unsigned long long>(flags.seed));
  BenchRecorder recorder("bench_fig12_tuning_time", flags);
  for (const auto& ds : datasets.value()) {
    PrintFigureTable("Fig.12 tuning time (packets)", ds, flags, &recorder,
                     [](const dtree::bcast::ExperimentResult& r) {
                       return r.mean_tuning_index;
                     });
  }
  recorder.Flush();
  return 0;
}
