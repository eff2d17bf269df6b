// The simulator's benchmark program; perfbench/run.py builds and runs it.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--threads <n>] [--git-sha <sha>]
//
// --threads (default nproc) sets num_threads of every entry-point call; the
// simulated metrics must not depend on it. --trace 0 repeats the
// workload's unit of work for --seconds, sets the workload up several
// times along the way (setup_s is the median), runs the correctness gates,
// and reports every end-to-end metric. --trace 1 is a separate run that
// records spans around each library call and reports the per-layer
// metrics with a self-time table. Human-readable lines come first; the
// last two lines are a JSON report and the one-line JSON result.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "layers.h"
#include "measure.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// Allowed gap between the summed self times and the traced wall time.
constexpr double kSelfTimeTolerance = 0.005;

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void WriteHost(Json* j, int threads, const std::string& git_sha) {
  j->Key("host").BeginObject();
  j->Key("nproc").Int(sysconf(_SC_NPROCESSORS_ONLN));
  j->Key("cpu_model").Str(CpuModel());
  j->Key("compiler").Str(Compiler());
  j->Key("build_type").Str(PERFBENCH_BUILD_TYPE);
  j->Key("git_sha").Str(git_sha);
  j->Key("threads").Int(threads);
  j->EndObject();
}

void WriteMetrics(Json* j, const std::vector<Metric>& metrics) {
  j->Key("metrics").BeginObject();
  for (const Metric& m : metrics) {
    j->Key(m.name).BeginObject();
    j->Key("value").Num(m.value);
    j->Key("unit").Str(m.unit);
    j->EndObject();
  }
  j->EndObject();
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

/// The untraced run. End-to-end metrics go in the result line; the
/// commit and give-up metrics, which are absent or zero on some
/// workloads, go in the report only.
bool RunUntraced(Workload* w, const RunConfig& cfg, Json* report,
                 std::vector<Metric>* result_metrics, int64_t* attempted,
                 int64_t* failed) {
  Outcome out;
  SpanRecorder off(false);
  dtree::Status st = dtree::Status::OK();
  const auto setup = [&] {
    const double t0 = WallSeconds();
    const dtree::Status s = w->Setup(&off);
    out.setup_s.push_back(WallSeconds() - t0);
    if (st.ok()) st = s;
  };
  // The host's speed drifts over seconds, so the set-ups are spread evenly
  // over the timed section (between its repetitions, each rebuilding the
  // same state) rather than taken back to back.
  const double start = WallSeconds();
  setup();
  if (st.ok()) {
    const dtree::Status measured = w->Measure(cfg.seconds, &out, [&] {
      const size_t n = out.setup_s.size();
      if (n < static_cast<size_t>(kSetupRepeats) &&
          WallSeconds() - start >= cfg.seconds * n / kSetupRepeats) {
        setup();
      }
    });
    if (st.ok()) st = measured;
  }
  while (st.ok() && out.setup_s.size() < static_cast<size_t>(kSetupRepeats)) {
    setup();
  }
  const double peak_rss_mb =
      static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0);
  if (st.ok()) w->Check(&out);
  if (!st.ok()) {
    std::printf("ERROR: %s\n", st.ToString().c_str());
    out.failed = std::max<int64_t>(out.failed, 1);
  }

  std::vector<double> qps, cpu_us;
  for (const Rep& r : out.reps) {
    qps.push_back(static_cast<double>(r.queries) / r.wall_s);
    cpu_us.push_back(1e6 * r.cpu_s / static_cast<double>(r.queries));
  }
  const SimStats& sim = out.sim;
  *result_metrics = {
      {"setup_s", "s", Median(out.setup_s)},
      {"queries_per_s", "queries/s", Median(qps)},
      {"cpu_us_per_query", "us", Median(cpu_us)},
      {"peak_rss_mb", "MiB", peak_rss_mb},
      {"tuning_mean_pkts", "packets", sim.tuning_mean},
      {"latency_mean_pkts", "packets", sim.latency_mean},
      {"latency_p99_pkts", "packets", sim.latency_p99},
  };
  std::vector<Metric> report_only = {
      {"give_up_share", "ratio",
       sim.queries > 0 ? static_cast<double>(sim.give_ups) /
                             static_cast<double>(sim.queries)
                       : 0.0},
  };
  const double tail = TailPercentile(out.commit_s.size());
  if (!out.commit_s.empty()) {
    std::vector<double> ms;
    for (double s : out.commit_s) ms.push_back(1e3 * s);
    report_only.push_back({"commit_ms_p50", "ms", Median(ms)});
    report_only.push_back({"commit_ms_p90", "ms", Quantile(ms, 0.9)});
  }

  int64_t gate_failed = 0;
  std::printf("setup: %zu repetitions; timed: %zu repetitions of %lld "
              "queries\n",
              out.setup_s.size(), out.reps.size(),
              static_cast<long long>(sim.queries));
  if (!out.commit_s.empty()) {
    std::printf("commits: %zu timed; highest percentile with >= 10 samples "
                "beyond it: p%g\n",
                out.commit_s.size(), tail);
  }
  for (const std::string& note : out.notes) {
    std::printf("  %s\n", note.c_str());
  }
  std::printf("correctness gates (outside the timed section):\n");
  for (const Gate& g : out.gates) {
    gate_failed += g.failed;
    std::printf("  %-18s %s  checked %lld, failed %lld  (%s)\n",
                g.name.c_str(), g.failed == 0 ? "PASS" : "FAIL",
                static_cast<long long>(g.checked),
                static_cast<long long>(g.failed), g.detail.c_str());
  }
  *attempted = std::max<int64_t>(out.attempted, 1);
  *failed = out.failed + gate_failed;
  std::printf("operations: %lld attempted, %lld failed (ratio %.6g)\n",
              static_cast<long long>(*attempted),
              static_cast<long long>(*failed),
              static_cast<double>(*failed) / static_cast<double>(*attempted));
  std::printf("end-to-end metrics:\n");
  PrintMetrics(*result_metrics);
  PrintMetrics(report_only);

  std::vector<Metric> all = *result_metrics;
  all.insert(all.end(), report_only.begin(), report_only.end());
  WriteMetrics(report, all);
  report->Key("setup_s_samples").BeginArray();
  for (double s : out.setup_s) report->Num(s);
  report->EndArray();
  report->Key("reps").BeginArray();
  for (const Rep& r : out.reps) {
    report->BeginObject();
    report->Key("wall_s").Num(r.wall_s);
    report->Key("cpu_s").Num(r.cpu_s);
    report->Key("queries").Int(r.queries);
    report->EndObject();
  }
  report->EndArray();
  report->Key("commit_tail_percentile").Num(tail);
  report->Key("gates").BeginArray();
  for (const Gate& g : out.gates) {
    report->BeginObject();
    report->Key("name").Str(g.name);
    report->Key("checked").Int(g.checked);
    report->Key("failed").Int(g.failed);
    report->Key("detail").Str(g.detail);
    report->EndObject();
  }
  report->EndArray();
  return st.ok() && *failed == 0;
}

/// The traced run: every span in memory, serialized once it ends.
bool RunTraced(Workload* w, Json* report, std::vector<Metric>* result_metrics,
               int64_t* attempted, int64_t* failed) {
  SpanRecorder rec(true);
  TraceReport tr;
  const int root = rec.Begin("run");
  dtree::Status st = w->Setup(&rec);
  if (st.ok()) st = w->Trace(&rec, &tr);
  rec.End(root);
  if (!st.ok()) std::printf("ERROR: %s\n", st.ToString().c_str());

  const Span& run = rec.spans()[static_cast<size_t>(root)];
  const double wall = run.end - run.start;
  const auto self = rec.SelfSecondsByName();
  double self_sum = 0.0;
  for (const auto& [name, s] : self) self_sum += s;
  const double gap = std::abs(self_sum - wall) / wall;
  const bool sums_ok = gap <= kSelfTimeTolerance;
  tr.metrics["trace.unattributed_share"] = self.at("run") / wall;
  tr.metrics["trace.overhead_share"] =
      tr.untraced_unit_s > 0.0
          ? (tr.traced_unit_s - tr.untraced_unit_s) / tr.untraced_unit_s
          : 0.0;

  std::vector<std::pair<std::string, double>> rows(self.begin(), self.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::printf("per-layer self time (traced wall %.4f s; 'run' is time no "
              "span covers):\n",
              wall);
  for (const auto& [name, s] : rows) {
    std::printf("  %-36s %10.6f s %7.2f%%\n", name.c_str(), s,
                100.0 * s / wall);
  }
  std::printf("  shares sum to %.4f%% of the wall (tolerance %.2f%%): %s\n",
              100.0 * self_sum / wall, 100.0 * kSelfTimeTolerance,
              sums_ok ? "PASS" : "FAIL");
  std::printf("tracing overhead: traced unit %.4f s vs untraced %.4f s "
              "(%+.2f%%)\n",
              tr.traced_unit_s, tr.untraced_unit_s,
              100.0 * tr.metrics["trace.overhead_share"]);
  std::printf("unit CPU %.4f s, attributed by replayed per-call costs:\n",
              tr.unit_cpu_s);
  for (const Attribution& a : tr.attribution) {
    std::printf("  %-28s %14.0f calls x %10.1f ns = %6.2f%%\n",
                a.layer.c_str(), a.calls, a.ns_per_call, 100.0 * a.cpu_share);
  }
  std::printf("  %-28s %51.2f%%\n", "broadcast.engine (rest)",
              100.0 * tr.metrics["broadcast.engine_cpu_share"]);
  std::printf("predictions:\n");
  for (const std::string& p : tr.predictions) {
    std::printf("  %s\n", p.c_str());
  }

  result_metrics->clear();
  for (const LayerMetric& lm : LayerMetrics()) {
    const auto it = tr.metrics.find(lm.name);
    result_metrics->push_back(
        {lm.name, lm.unit, it == tr.metrics.end() ? 0.0 : it->second});
  }
  std::printf("per-layer metrics:\n");
  PrintMetrics(*result_metrics);

  WriteMetrics(report, *result_metrics);
  report->Key("self_time_tolerance").Num(kSelfTimeTolerance);
  report->Key("self_time_sum_share").Num(self_sum / wall);
  report->Key("predictions").BeginArray();
  for (const std::string& p : tr.predictions) report->Str(p);
  report->EndArray();
  report->Key("spans").BeginArray();
  for (const Span& s : rec.spans()) {
    report->BeginObject();
    report->Key("name").Str(s.name);
    report->Key("parent").Int(s.parent);
    report->Key("start").Num(s.start - run.start);
    report->Key("end").Num(s.end - run.start);
    report->EndObject();
  }
  report->EndArray();
  *attempted = std::max<int64_t>(tr.operations, 1);
  *failed = st.ok() ? 0 : 1;
  return st.ok() && sums_ok;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <paper|fleet-lossy|fleet-mobile|"
               "live-updates> --seed <n> --seconds <s> --trace <0|1> "
               "[--threads <n>] [--git-sha <sha>]\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  cfg.threads = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  bool trace = false;
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    const char* v = argv[++i];
    if (flag == "--workload") {
      cfg.workload = v;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::atof(v);
    } else if (flag == "--trace") {
      trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--threads") {
      cfg.threads = std::max(1, std::atoi(v));
    } else if (flag == "--git-sha") {
      git_sha = v;
    } else {
      return Usage(argv[0]);
    }
  }
  std::unique_ptr<Workload> w = MakeWorkload(cfg);
  if (w == nullptr || !(cfg.seconds > 0.0)) return Usage(argv[0]);

  Json report;
  report.BeginObject().Key("report").BeginObject();
  report.Key("workload").Str(cfg.workload);
  report.Key("seed").Int(static_cast<int64_t>(cfg.seed));
  report.Key("seconds").Num(cfg.seconds);
  report.Key("trace").Bool(trace);
  WriteHost(&report, cfg.threads, git_sha);
  std::printf("== perfbench: workload %s, seed %llu, %g s, trace %d ==\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, trace ? 1 : 0);
  std::printf("host: %ld CPUs, %s; %s, %s build, git %s, %d threads\n",
              sysconf(_SC_NPROCESSORS_ONLN), CpuModel().c_str(),
              Compiler().c_str(), PERFBENCH_BUILD_TYPE, git_sha.c_str(),
              cfg.threads);

  std::vector<Metric> metrics;
  int64_t attempted = 1, failed = 0;
  const bool correct =
      trace ? RunTraced(w.get(), &report, &metrics, &attempted, &failed)
            : RunUntraced(w.get(), cfg, &report, &metrics, &attempted,
                          &failed);
  report.Key("correct").Bool(correct);
  report.EndObject().EndObject();

  Json result;
  result.BeginObject();
  result.Key("correct").Bool(correct);
  result.Key("attempted").Int(attempted);
  result.Key("failed").Int(failed);
  WriteMetrics(&result, metrics);
  result.EndObject();
  std::printf("%s\n%s\n", report.str().c_str(), result.str().c_str());
  return correct ? 0 : 1;
}
