// Skewed-access extension bench: under a Zipf query load, compare the
// paper's count-balanced D-tree against the weight-balanced variant
// (Options::access_weights), which splits partitions at equal access
// mass. Inspired by the paper's reference [6] (imbalanced indexing for
// skewed broadcast access).
//
// Expected: weighting leaves uniform loads unchanged and cuts mean tuning
// under skew, more at higher theta, at essentially the same index size.

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dtree::bench;
  const BenchFlags flags = ParseFlags(argc, argv);
  auto datasets = LoadDatasets(flags);
  if (!datasets.ok()) {
    std::fprintf(stderr, "%s\n", datasets.status().ToString().c_str());
    return 1;
  }
  std::printf("== Skewed access: count-balanced vs weight-balanced D-tree "
              "==\nqueries per cell: %d, seed %llu\n",
              flags.queries, static_cast<unsigned long long>(flags.seed));
  BenchRecorder recorder("bench_skewed_access", flags);
  const double thetas[] = {0.0, 0.5, 0.8, 1.1};
  for (const auto& ds : datasets.value()) {
    std::printf("\ndataset %s (N=%d)\n", ds.name.c_str(),
                ds.subdivision.NumRegions());
    for (int capacity : flags.capacities) {
      std::printf("  packet %d\n", capacity);
      std::printf("    %-8s %18s %18s %10s\n", "theta", "tuning(balanced)",
                  "tuning(weighted)", "saving");
      for (double theta : thetas) {
        dtree::Rng wrng(flags.seed + 1);
        const std::vector<double> weights = dtree::workload::ZipfWeights(
            ds.subdivision.NumRegions(), theta, &wrng);

        dtree::core::DTree::Options balanced;
        balanced.packet_capacity = capacity;
        dtree::core::DTree::Options weighted = balanced;
        weighted.access_weights = weights;

        dtree::bcast::ExperimentOptions opt;
        opt.packet_capacity = capacity;
        opt.num_queries = flags.queries;
        opt.seed = flags.seed;
        opt.distribution = dtree::bcast::QueryDistribution::kWeightedRegion;
        opt.region_weights = weights;
        opt.num_threads = flags.threads;

        double tuning[2] = {0.0, 0.0};
        bool ok = true;
        const dtree::core::DTree::Options* variants[2] = {&balanced,
                                                          &weighted};
        const char* variant_name[2] = {"balanced", "weighted"};
        for (int v = 0; v < 2 && ok; ++v) {
          auto tree = dtree::core::DTree::Build(ds.subdivision, *variants[v]);
          if (!tree.ok()) {
            std::printf("    build error: %s\n",
                        tree.status().ToString().c_str());
            ok = false;
            break;
          }
          char theta_cs[16];
          std::snprintf(theta_cs, sizeof(theta_cs), "%.2f", theta);
          const std::string cell = ds.name + "/" + variant_name[v] + "/cap" +
                                   std::to_string(capacity) + "/theta" +
                                   theta_cs;
          AttachTrace(flags, cell, &opt);
          const auto t0 = std::chrono::steady_clock::now();
          auto res = dtree::bcast::RunExperiment(tree.value(),
                                                 ds.subdivision, nullptr,
                                                 opt);
          const double wall_s = SecondsSince(t0);
          if (!res.ok()) {
            std::printf("    run error: %s\n",
                        res.status().ToString().c_str());
            ok = false;
            break;
          }
          recorder.Record(cell, wall_s,
                          flags.queries / std::max(wall_s, 1e-12), 0,
                          CellPercentiles::From(res.value()));
          tuning[v] = res.value().mean_tuning_index;
        }
        if (!ok) continue;
        std::printf("    %-8.2f %18.3f %18.3f %9.1f%%\n", theta, tuning[0],
                    tuning[1], 100.0 * (tuning[0] - tuning[1]) /
                                   std::max(tuning[0], 1e-9));
      }
    }
  }
  recorder.Flush();
  return 0;
}
