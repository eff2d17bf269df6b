// Ablation bench for the D-tree's three design choices (§4.2/§4.4):
//   * inter-prob tie-breaking among equal-size partitions,
//   * the RMC/LMC early-termination arrangement for multi-packet nodes,
//   * greedy partial-packet merging.
// Reports tuning time, normalized latency, and index packets with each
// knob toggled off, against the full configuration.

#include "bench_util.h"

namespace {

using dtree::bcast::ExperimentOptions;
using dtree::bcast::ExperimentResult;
using dtree::bcast::RunExperiment;
using dtree::bench::BenchFlags;
using dtree::core::DTree;

struct Variant {
  const char* name;
  DTree::Options options;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dtree::bench;
  const BenchFlags flags = ParseFlags(argc, argv);
  auto datasets = LoadDatasets(flags);
  if (!datasets.ok()) {
    std::fprintf(stderr, "%s\n", datasets.status().ToString().c_str());
    return 1;
  }
  std::printf("== D-tree ablations (tuning packets / normalized latency / "
              "index packets) ==\n");
  std::printf("queries per cell: %d, seed %llu\n", flags.queries,
              static_cast<unsigned long long>(flags.seed));
  BenchRecorder recorder("bench_ablation_dtree", flags);
  for (const auto& ds : datasets.value()) {
    std::printf("\ndataset %s (N=%d)\n", ds.name.c_str(),
                ds.subdivision.NumRegions());
    for (int capacity : flags.capacities) {
      DTree::Options full;
      full.packet_capacity = capacity;
      DTree::Options no_interprob = full;
      no_interprob.interprob_tiebreak = false;
      DTree::Options no_early = full;
      no_early.early_termination = false;
      DTree::Options no_merge = full;
      no_merge.merge_leaf_packets = false;
      const Variant variants[] = {{"full", full},
                                  {"-interprob", no_interprob},
                                  {"-early-term", no_early},
                                  {"-pkt-merge", no_merge}};
      std::printf("  packet %d\n", capacity);
      for (const Variant& v : variants) {
        auto tree = DTree::Build(ds.subdivision, v.options);
        if (!tree.ok()) {
          std::printf("    %-12s ERR: %s\n", v.name,
                      tree.status().ToString().c_str());
          continue;
        }
        const std::string cell = ds.name + "/" + v.name + "/cap" +
                                 std::to_string(capacity);
        ExperimentOptions opt;
        opt.packet_capacity = capacity;
        opt.num_queries = flags.queries;
        opt.seed = flags.seed;
        opt.num_threads = flags.threads;
        AttachTrace(flags, cell, &opt);
        const auto t0 = std::chrono::steady_clock::now();
        auto res = RunExperiment(tree.value(), ds.subdivision, nullptr, opt);
        const double wall_s = SecondsSince(t0);
        if (!res.ok()) {
          std::printf("    %-12s ERR: %s\n", v.name,
                      res.status().ToString().c_str());
          continue;
        }
        const double qps = flags.queries / std::max(wall_s, 1e-12);
        recorder.Record(cell, wall_s, qps, 0,
                        CellPercentiles::From(res.value()));
        const ExperimentResult& r = res.value();
        std::printf("    %-12s tuning %7.3f  latency %6.3f  packets %5d"
                    "  (%.3fs, %.1f kqps)\n",
                    v.name, r.mean_tuning_index, r.normalized_latency,
                    r.index_packets, wall_s, qps / 1000.0);
      }
    }
  }
  recorder.Flush();
  return 0;
}
