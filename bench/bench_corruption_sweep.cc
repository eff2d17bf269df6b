// Bit-corruption sweep: runs the experiment for every index structure at
// a range of i.i.d. bit-error rates (plus one burst-fading row) with the
// full degradation ladder armed (re-tune recovery + fallback linear
// scan) and reports how access latency, tuning time, and the fallback
// rate degrade as the medium gets worse. Also acts as a smoke check for
// the corruption layer: the BER-0 row must reproduce the fault-free run
// bit-for-bit with zero corrupted packets and zero fallbacks, and the
// binary exits nonzero when it does not.
//
// Extra flags (on top of the shared ones):
//   --bers=a,b,c   bit-error rates to sweep (default 0,1e-6,1e-5,1e-4,1e-3)
//   --capacity=N   packet capacity (default 256)

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dtree::bench;
  std::vector<double> bers{0.0, 1e-6, 1e-5, 1e-4, 1e-3};
  int capacity = 256;
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--bers=", 7) == 0) {
      bers.clear();
      for (const std::string& r : SplitCsv(argv[i] + 7)) {
        bers.push_back(std::atof(r.c_str()));
      }
    } else if (std::strncmp(argv[i], "--capacity=", 11) == 0) {
      capacity = std::atoi(argv[i] + 11);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  BenchFlags flags =
      ParseFlags(static_cast<int>(passthrough.size()), passthrough.data());
  if (flags.bench_json == "BENCH_experiment.json") {
    flags.bench_json = "BENCH_corruption.json";
  }
  flags.datasets = {flags.datasets.front()};

  auto datasets = LoadDatasets(flags);
  if (!datasets.ok()) {
    std::fprintf(stderr, "%s\n", datasets.status().ToString().c_str());
    return 1;
  }
  const dtree::workload::Dataset& ds = datasets.value().front();

  std::printf("== Bit-corruption sweep ==\n");
  std::printf("dataset %s (N=%d), cap %d, %d queries/cell, fallback armed\n",
              ds.name.c_str(), ds.subdivision.NumRegions(), capacity,
              flags.queries);
  std::printf("%-14s", "ber");
  for (IndexKind k : kAllKinds) std::printf(" %34s", KindName(k));
  std::printf("\n%-14s", "");
  for (size_t i = 0; i < 4; ++i) {
    std::printf(" %10s %7s %7s %7s", "latency", "tuning", "corr", "fb%");
  }
  std::printf("\n");

  BenchRecorder recorder("bench_corruption_sweep", flags);
  bool ok = true;

  // One fault-free baseline per structure; the BER-0 row must match it.
  std::vector<dtree::bcast::ExperimentResult> baseline;
  std::vector<std::unique_ptr<dtree::bcast::AirIndex>> indexes;
  for (IndexKind k : kAllKinds) {
    auto index = BuildIndex(k, ds.subdivision, capacity);
    if (!index.ok()) {
      std::fprintf(stderr, "build %s: %s\n", KindName(k),
                   index.status().ToString().c_str());
      return 1;
    }
    dtree::bcast::ExperimentOptions opt;
    opt.packet_capacity = capacity;
    opt.num_queries = flags.queries;
    opt.seed = flags.seed;
    opt.num_threads = flags.threads;
    auto res =
        dtree::bcast::RunExperiment(*index.value(), ds.subdivision, nullptr,
                                    opt);
    if (!res.ok()) {
      std::fprintf(stderr, "baseline %s: %s\n", KindName(k),
                   res.status().ToString().c_str());
      return 1;
    }
    baseline.push_back(std::move(res).value());
    indexes.push_back(std::move(index).value());
  }

  auto run_row = [&](const char* row_label,
                     const dtree::bcast::CorruptionOptions& corruption,
                     bool check_against_baseline) {
    std::printf("%-14s", row_label);
    for (size_t ki = 0; ki < indexes.size(); ++ki) {
      const std::string cell = ds.name + "/" + KindName(kAllKinds[ki]) +
                               "/cap" + std::to_string(capacity) + "/" +
                               row_label;
      dtree::bcast::ExperimentOptions opt;
      opt.packet_capacity = capacity;
      opt.num_queries = flags.queries;
      opt.seed = flags.seed;
      opt.num_threads = flags.threads;
      opt.loss.corruption = corruption;
      opt.loss.max_retries = 8;
      opt.loss.fallback_scan_cycles = 2;
      AttachTrace(flags, cell, &opt);
      const auto t0 = std::chrono::steady_clock::now();
      auto res = dtree::bcast::RunExperiment(*indexes[ki], ds.subdivision,
                                             nullptr, opt);
      const double wall_s = SecondsSince(t0);
      if (!res.ok()) {
        std::printf(" %34s", "ERR");
        std::fprintf(stderr, "cell %s/%s failed: %s\n", row_label,
                     KindName(kAllKinds[ki]),
                     res.status().ToString().c_str());
        ok = false;
        continue;
      }
      const auto& r = res.value();
      recorder.Record(cell, wall_s,
                      flags.queries / std::max(wall_s, 1e-12), 0,
                      CellPercentiles::From(r));
      std::printf(" %10.2f %7.2f %7.3f %6.2f%%", r.mean_latency,
                  r.mean_tuning_total, r.mean_corrupted_packets,
                  100.0 * r.fallback_queries / flags.queries);
      if (check_against_baseline) {
        const auto& b = baseline[ki];
        if (r.mean_latency != b.mean_latency ||
            r.mean_tuning_index != b.mean_tuning_index ||
            r.mean_tuning_total != b.mean_tuning_total ||
            r.total_retries != 0 || r.total_corrupted_packets != 0 ||
            r.fallback_queries != 0 || r.unrecoverable_queries != 0) {
          std::fprintf(stderr,
                       "FAIL: %s at BER 0 does not reproduce the fault-free "
                       "run (latency %.17g vs %.17g, corrupted %lld, "
                       "fallbacks %lld)\n",
                       KindName(kAllKinds[ki]), r.mean_latency,
                       b.mean_latency,
                       static_cast<long long>(r.total_corrupted_packets),
                       static_cast<long long>(r.fallback_queries));
          ok = false;
        }
      }
    }
    std::printf("\n");
  };

  for (double ber : bers) {
    dtree::bcast::CorruptionOptions corruption;
    corruption.model = dtree::bcast::CorruptionModel::kIidBits;
    corruption.bit_error_rate = ber;
    corruption.seed = flags.seed + 2;
    char label[32];
    std::snprintf(label, sizeof(label), "ber%g", ber);
    run_row(label, corruption, ber == 0.0);
  }
  {
    // Burst row: bad-state BER matching the 1e-4 i.i.d. row's frame hit
    // rate but concentrated in fades (stationary P(bad) = 1/11).
    dtree::bcast::CorruptionOptions corruption;
    corruption.model = dtree::bcast::CorruptionModel::kBurstBits;
    corruption.p_good_to_bad = 0.05;
    corruption.p_bad_to_good = 0.5;
    corruption.ber_good = 0.0;
    corruption.ber_bad = 1.1e-3;
    corruption.seed = flags.seed + 2;
    run_row("burst", corruption, false);
  }

  if (!ok) {
    std::fprintf(stderr, "FAIL: corruption-sweep invariants violated\n");
    return 1;
  }
  recorder.Flush();
  return 0;
}
