// Broadcast-cycle profiler: where inside a query does a client spend its
// energy, and how heavy are the tails the mean-based figures hide?
//
// For every index structure and every loss rate the binary runs the
// standard experiment with per-query tracing enabled and aggregates the
// stream in a CycleProfiler, reporting
//   * latency and tuning-time percentiles (p50/p95/p99/max),
//   * a retry histogram,
//   * index-packet reads attributed to D-tree levels (which part of the
//     tree costs tuning energy),
//   * awake packets attributed to their position within the broadcast
//     cycle,
// plus a p99-tuning-vs-loss-rate table across all four structures
// (EXPERIMENTS.md E11). Cell percentiles land in the BENCH_*.json schema
// (default BENCH_trace_profile.json); --trace-out additionally streams
// every query as JSONL for offline analysis (tools/trace_summary.py);
// --telemetry-out appends one windowed-timeline block per cell (fed
// through TelemetryTraceSink, validated by tools/telemetry_report.py).
//
// Extra flags (on top of the shared ones):
//   --loss-rates=a,b,c   i.i.d. loss rates to sweep (default 0,0.05,0.1,0.2)
//   --capacity=N         packet capacity (default 256)
//   --bins=N             broadcast-cycle position bins (default 16)

#include <map>

#include "bench_util.h"
#include "broadcast/telemetry.h"
#include "broadcast/trace.h"

int main(int argc, char** argv) {
  using namespace dtree::bench;
  namespace bcast = dtree::bcast;
  std::vector<double> loss_rates{0.0, 0.05, 0.1, 0.2};
  int capacity = 256;
  int bins = 16;
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--loss-rates=", 13) == 0) {
      loss_rates.clear();
      for (const std::string& r : SplitCsv(argv[i] + 13)) {
        loss_rates.push_back(std::atof(r.c_str()));
      }
    } else if (std::strncmp(argv[i], "--capacity=", 11) == 0) {
      capacity = std::atoi(argv[i] + 11);
    } else if (std::strncmp(argv[i], "--bins=", 7) == 0) {
      bins = std::atoi(argv[i] + 7);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  BenchFlags flags =
      ParseFlags(static_cast<int>(passthrough.size()), passthrough.data());
  if (flags.bench_json == "BENCH_experiment.json") {
    flags.bench_json = "BENCH_trace_profile.json";
  }
  flags.datasets = {flags.datasets.front()};

  auto datasets = LoadDatasets(flags);
  if (!datasets.ok()) {
    std::fprintf(stderr, "%s\n", datasets.status().ToString().c_str());
    return 1;
  }
  const dtree::workload::Dataset& ds = datasets.value().front();

  std::printf("== Broadcast-cycle trace profile ==\n");
  std::printf("dataset %s (N=%d), cap %d, %d queries/cell, seed %llu\n",
              ds.name.c_str(), ds.subdivision.NumRegions(), capacity,
              flags.queries, static_cast<unsigned long long>(flags.seed));

  BenchRecorder recorder("bench_trace_profile", flags);
  bool ok = true;
  // One timeline block per cell, appended and written at the end.
  std::string timeline_blocks;
  // p99 tuning per (loss rate, index) for the E11 summary table.
  std::map<double, std::map<std::string, double>> p99_tuning;

  for (IndexKind kind : kAllKinds) {
    auto index = BuildIndex(kind, ds.subdivision, capacity);
    if (!index.ok()) {
      std::fprintf(stderr, "build %s: %s\n", KindName(kind),
                   index.status().ToString().c_str());
      return 1;
    }
    for (double rate : loss_rates) {
      char cell[128];
      std::snprintf(cell, sizeof(cell), "%s/%s/cap%d/loss%g",
                    ds.name.c_str(), KindName(kind), capacity, rate);

      dtree::bcast::ExperimentOptions opt;
      opt.packet_capacity = capacity;
      opt.num_queries = flags.queries;
      opt.seed = flags.seed;
      opt.num_threads = flags.threads;
      if (rate > 0.0) {
        opt.loss.model = bcast::LossModel::kIid;
        opt.loss.loss_rate = rate;
        opt.loss.seed = flags.seed + 1;
      }

      // Channel layout is needed to size the profiler; it must match the
      // one the experiment derives from the same options.
      bcast::ChannelOptions copt;
      copt.packet_capacity = capacity;
      auto channel = bcast::BroadcastChannel::Create(
          index.value()->NumIndexPackets(), ds.subdivision.NumRegions(),
          copt);
      if (!channel.ok()) {
        std::fprintf(stderr, "channel %s: %s\n", cell,
                     channel.status().ToString().c_str());
        return 1;
      }
      bcast::CycleProfiler profiler(channel.value().cycle_packets(), bins);
      bcast::JsonlTraceSink* jsonl = GlobalTraceSink(flags);
      if (jsonl != nullptr) jsonl->set_label(cell);
      bcast::FleetTelemetry telemetry;
      std::unique_ptr<bcast::TelemetryTraceSink> telemetry_sink;
      if (!flags.telemetry_out.empty()) {
        telemetry.Reset(channel.value().cycle_packets(), /*num_shards=*/1);
        telemetry_sink =
            std::make_unique<bcast::TelemetryTraceSink>(&telemetry);
      }
      bcast::TeeTraceSink tee({&profiler, jsonl, telemetry_sink.get()});
      opt.trace_sink = &tee;

      const auto t0 = std::chrono::steady_clock::now();
      auto res = dtree::bcast::RunExperiment(*index.value(), ds.subdivision,
                                             nullptr, opt);
      const double wall_s = SecondsSince(t0);
      if (!res.ok()) {
        std::fprintf(stderr, "cell %s failed: %s\n", cell,
                     res.status().ToString().c_str());
        ok = false;
        continue;
      }
      const auto& r = res.value();
      recorder.Record(cell, wall_s, flags.queries / std::max(wall_s, 1e-12),
                      0, CellPercentiles::From(r));
      if (telemetry_sink != nullptr) {
        telemetry.MergeShards();
        timeline_blocks += telemetry.TimelineJsonl(cell);
      }

      const dtree::Histogram& lat = profiler.latency_hist();
      const dtree::Histogram& tun = profiler.tuning_hist();
      const dtree::Histogram& ret = profiler.retries_hist();
      p99_tuning[rate][KindName(kind)] = tun.Percentile(0.99);

      std::printf("\n-- %s --\n", cell);
      std::printf("latency  p50 %8.1f  p95 %8.1f  p99 %8.1f  max %8.1f"
                  "  (mean %8.1f)\n",
                  lat.Percentile(0.50), lat.Percentile(0.95),
                  lat.Percentile(0.99), lat.Max(), r.mean_latency);
      std::printf("tuning   p50 %8.1f  p95 %8.1f  p99 %8.1f  max %8.1f"
                  "  (mean %8.1f)\n",
                  tun.Percentile(0.50), tun.Percentile(0.95),
                  tun.Percentile(0.99), tun.Max(), r.mean_tuning_total);
      if (ret.Max() > 0.0) {
        std::printf("retries  p95 %.0f  p99 %.0f  max %.0f  "
                    "(mean %.3f, unrecoverable %lld)\n",
                    ret.Percentile(0.95), ret.Percentile(0.99), ret.Max(),
                    r.mean_retries,
                    static_cast<long long>(r.unrecoverable_queries));
      }

      // Per-level attribution: D-tree probes annotate their path, so the
      // profiler can say where in the tree the energy goes.
      const std::vector<int64_t>& levels = profiler.level_reads();
      if (!levels.empty()) {
        int64_t total = profiler.unattributed_reads();
        for (int64_t c : levels) total += c;
        std::printf("index reads by tree level (total %lld):",
                    static_cast<long long>(total));
        for (size_t d = 0; d < levels.size(); ++d) {
          std::printf(" L%zu %.1f%%", d,
                      100.0 * static_cast<double>(levels[d]) /
                          static_cast<double>(std::max<int64_t>(total, 1)));
        }
        if (profiler.unattributed_reads() > 0) {
          std::printf(" ? %.1f%%",
                      100.0 *
                          static_cast<double>(profiler.unattributed_reads()) /
                          static_cast<double>(std::max<int64_t>(total, 1)));
        }
        std::printf("\n");
      }

      // Cycle-position attribution: which slice of the broadcast cycle
      // the client is awake for.
      const std::vector<int64_t>& pos = profiler.position_reads();
      int64_t awake = 0;
      for (int64_t c : pos) awake += c;
      if (awake > 0) {
        std::printf("awake packets by cycle position (%d bins):", bins);
        for (int64_t c : pos) {
          std::printf(" %.1f%%", 100.0 * static_cast<double>(c) /
                                     static_cast<double>(awake));
        }
        std::printf("\n");
      }
    }
  }

  std::printf("\n== p99 tuning time vs. loss rate (E11) ==\n%-10s", "loss");
  for (IndexKind k : kAllKinds) std::printf(" %12s", KindName(k));
  std::printf("\n");
  for (const auto& [rate, row] : p99_tuning) {
    std::printf("%-10g", rate);
    for (IndexKind k : kAllKinds) {
      const auto it = row.find(KindName(k));
      if (it == row.end()) {
        std::printf(" %12s", "ERR");
      } else {
        std::printf(" %12.1f", it->second);
      }
    }
    std::printf("\n");
  }

  if (!flags.telemetry_out.empty() &&
      !WriteTextFile(flags.telemetry_out, timeline_blocks)) {
    ok = false;
  }

  if (!ok) {
    std::fprintf(stderr, "FAIL: one or more profile cells failed\n");
    return 1;
  }
  recorder.Flush();
  return 0;
}
