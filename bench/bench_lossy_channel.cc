// Lossy-channel sweep: runs the experiment for every index structure at a
// range of i.i.d. packet-loss rates (plus one Gilbert–Elliott burst-loss
// row) and reports how access latency, tuning time, and retry counts
// degrade as the medium gets worse. Also acts as a smoke check for the
// fault-injection layer: the loss-rate-0 row must reproduce the lossless
// run bit-for-bit with zero retries and zero unrecoverable queries, and
// the binary exits nonzero when it does not.
//
// Extra flags (on top of the shared ones):
//   --loss-rates=a,b,c   i.i.d. loss rates to sweep (default 0,0.05,0.1,0.2)
//   --capacity=N         packet capacity (default 256)

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dtree::bench;
  std::vector<double> loss_rates{0.0, 0.05, 0.1, 0.2};
  int capacity = 256;
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--loss-rates=", 13) == 0) {
      loss_rates.clear();
      for (const std::string& r : SplitCsv(argv[i] + 13)) {
        loss_rates.push_back(std::atof(r.c_str()));
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
    flags.bench_json = "BENCH_lossy.json";
  }
  flags.datasets = {flags.datasets.front()};

  auto datasets = LoadDatasets(flags);
  if (!datasets.ok()) {
    std::fprintf(stderr, "%s\n", datasets.status().ToString().c_str());
    return 1;
  }
  const dtree::workload::Dataset& ds = datasets.value().front();

  std::printf("== Lossy-channel sweep ==\n");
  std::printf("dataset %s (N=%d), cap %d, %d queries/cell\n", ds.name.c_str(),
              ds.subdivision.NumRegions(), capacity, flags.queries);
  std::printf("%-14s", "loss");
  for (IndexKind k : kAllKinds) std::printf(" %26s", KindName(k));
  std::printf("\n%-14s", "");
  for (size_t i = 0; i < 4; ++i) {
    std::printf(" %10s %8s %6s", "latency", "retries", "unrec");
  }
  std::printf("\n");

  BenchRecorder recorder("bench_lossy_channel", flags);
  bool ok = true;

  // One lossless baseline per structure; the loss-0 row must match it.
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
                     const dtree::bcast::LossOptions& loss,
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
      opt.loss = loss;
      AttachTrace(flags, cell, &opt);
      const auto t0 = std::chrono::steady_clock::now();
      auto res = dtree::bcast::RunExperiment(*indexes[ki], ds.subdivision,
                                             nullptr, opt);
      const double wall_s = SecondsSince(t0);
      if (!res.ok()) {
        std::printf(" %26s", "ERR");
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
      std::printf(" %10.2f %8.3f %6lld", r.mean_latency, r.mean_retries,
                  static_cast<long long>(r.unrecoverable_queries));
      if (check_against_baseline) {
        const auto& b = baseline[ki];
        if (r.mean_latency != b.mean_latency ||
            r.mean_tuning_index != b.mean_tuning_index ||
            r.mean_tuning_total != b.mean_tuning_total ||
            r.total_retries != 0 || r.unrecoverable_queries != 0) {
          std::fprintf(stderr,
                       "FAIL: %s at loss 0 does not reproduce the lossless "
                       "run (latency %.17g vs %.17g, retries %lld, "
                       "unrecoverable %lld)\n",
                       KindName(kAllKinds[ki]), r.mean_latency,
                       b.mean_latency,
                       static_cast<long long>(r.total_retries),
                       static_cast<long long>(r.unrecoverable_queries));
          ok = false;
        }
      }
    }
    std::printf("\n");
  };

  for (double rate : loss_rates) {
    dtree::bcast::LossOptions loss;
    loss.model = dtree::bcast::LossModel::kIid;
    loss.loss_rate = rate;
    loss.seed = flags.seed + 1;
    char label[32];
    std::snprintf(label, sizeof(label), "loss%g", rate);
    run_row(label, loss, rate == 0.0);
  }
  {
    // Burst-loss row: same mean loss as the 0.05 i.i.d. row
    // (stationary P(bad) = 1/11, loss_bad = 0.55) but correlated in time.
    dtree::bcast::LossOptions loss;
    loss.model = dtree::bcast::LossModel::kGilbertElliott;
    loss.p_good_to_bad = 0.05;
    loss.p_bad_to_good = 0.5;
    loss.loss_good = 0.0;
    loss.loss_bad = 0.55;
    loss.seed = flags.seed + 1;
    run_row("burst", loss, false);
  }

  if (!ok) {
    std::fprintf(stderr, "FAIL: lossy-channel invariants violated\n");
    return 1;
  }
  recorder.Flush();
  return 0;
}
