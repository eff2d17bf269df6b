// FleetTelemetry (broadcast/telemetry.h): the observability layer's two
// hard requirements pinned as tests.
//
//   1. Telemetry OFF is free of observable effect: FleetResult is
//      bit-identical with and without a telemetry sink attached (the
//      golden pin — attaching observers must not perturb the engine's
//      RNG draw order or arithmetic).
//   2. Telemetry ON is deterministic: the timeline JSONL, the flight
//      recorder dump and the Prometheus text are byte-identical at 1, 4
//      and 8 threads (per-shard accumulation + shard-ordered merge).
//
// Plus: sum-of-windows equals the engine's own run totals, the read
// heatmap balances against the window counters, unrecoverable queries
// leave black-box flight records that are the tail of their own query's
// trace (fleet, versioned fleet and experiment), TelemetryTraceSink gives the
// single-query experiment driver the same timeline schema, and
// CycleProfiler attributes fleet index reads to D-tree levels.

#include <algorithm>
#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "broadcast/experiment.h"
#include "broadcast/fleet.h"
#include "broadcast/telemetry.h"
#include "broadcast/trace.h"
#include "dtree/dtree.h"
#include "test_util.h"
#include "workload/datasets.h"

#include "gtest/gtest.h"

namespace dtree::bcast {
namespace {

struct FleetFixture {
  sub::Subdivision sub;
  core::DTree tree;
};

FleetFixture MakeFixture(int regions, uint64_t seed) {
  sub::Subdivision sub = test::RandomVoronoi(regions, seed);
  core::DTree::Options topt;
  topt.packet_capacity = 256;
  auto tree = core::DTree::Build(sub, topt);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return {std::move(sub), std::move(tree).value()};
}

FleetOptions LossyFleetOptions() {
  FleetOptions fopt;
  fopt.packet_capacity = 256;
  fopt.num_clients = 2000;
  fopt.sim_cycles = 3.0;
  fopt.queries_per_cycle = 1.0;
  fopt.churn = 0.1;
  fopt.seed = 1234;
  fopt.loss.model = LossModel::kIid;
  fopt.loss.loss_rate = 0.15;
  fopt.loss.seed = 7;
  return fopt;
}

void ExpectBitIdentical(const FleetResult& a, const FleetResult& b) {
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.departures, b.departures);
  EXPECT_EQ(a.mean_latency, b.mean_latency);  // bitwise
  EXPECT_EQ(a.mean_tuning_total, b.mean_tuning_total);
  EXPECT_EQ(a.mean_retries, b.mean_retries);
  EXPECT_EQ(a.total_retries, b.total_retries);
  EXPECT_EQ(a.total_lost_packets, b.total_lost_packets);
  EXPECT_EQ(a.total_corrupted_packets, b.total_corrupted_packets);
  EXPECT_EQ(a.unrecoverable_queries, b.unrecoverable_queries);
  EXPECT_EQ(a.fallback_queries, b.fallback_queries);
  EXPECT_EQ(a.min_latency, b.min_latency);
  EXPECT_EQ(a.max_latency, b.max_latency);
  const Histogram* ha = a.metrics.FindHistogram(kLatencyHist);
  const Histogram* hb = b.metrics.FindHistogram(kLatencyHist);
  ASSERT_NE(ha, nullptr);
  ASSERT_NE(hb, nullptr);
  EXPECT_EQ(ha->Sum(), hb->Sum());
  EXPECT_EQ(ha->TotalCount(), hb->TotalCount());
}

TEST(FleetTelemetryTest, AttachingTelemetryDoesNotPerturbFleetResult) {
  // The golden pin: an attached observer must be invisible to the
  // simulation itself — no RNG draws, no arithmetic reordering.
  FleetFixture f = MakeFixture(60, 901);
  FleetOptions fopt = LossyFleetOptions();
  auto bare = RunFleet(f.tree, f.sub, fopt);
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  ASSERT_GT(bare.value().queries, 1000);

  FleetTelemetry telemetry;
  fopt.telemetry = &telemetry;
  auto observed = RunFleet(f.tree, f.sub, fopt);
  ASSERT_TRUE(observed.ok()) << observed.status().ToString();
  ExpectBitIdentical(bare.value(), observed.value());
  EXPECT_FALSE(telemetry.series().empty());

  // The same pin for the trace bytes, a versioned fleet with epoch
  // switches and a cached mobile fleet: the engine may schedule an
  // untelemetered fleet differently, but never with a visible difference.
  FleetFixture f2 = MakeFixture(48, 904);
  FleetFixture f3 = MakeFixture(70, 905);
  const std::vector<FleetEpoch> epochs = {{&f.tree, &f.sub, 3, 1},
                                          {&f2.tree, &f2.sub, 4, 1},
                                          {&f3.tree, &f3.sub, 5, 1}};
  FleetOptions versioned = LossyFleetOptions();
  versioned.num_clients = 600;
  FleetOptions cached = LossyFleetOptions();
  cached.num_clients = 300;
  cached.queries_per_cycle = 4.0;
  cached.mobility.enabled = true;
  cached.mobility.hop_scale = 20.0;
  cached.cache.enabled = true;
  cached.cache.verify_hits = true;
  const auto run_pair = [&](FleetOptions o, auto run, FleetResult* out) {
    std::string bare_traces, observed_traces;
    JsonlTraceSink bare_sink(&bare_traces);
    o.trace_sink = &bare_sink;
    o.telemetry = nullptr;
    auto without = run(o);
    ASSERT_TRUE(without.ok()) << without.status().ToString();
    JsonlTraceSink observed_sink(&observed_traces);
    FleetTelemetry tel;
    o.trace_sink = &observed_sink;
    o.telemetry = &tel;
    auto with = run(o);
    ASSERT_TRUE(with.ok()) << with.status().ToString();
    ExpectBitIdentical(without.value(), with.value());
    EXPECT_EQ(without.value().total_epoch_switches,
              with.value().total_epoch_switches);
    EXPECT_EQ(without.value().epoch_churn_queries,
              with.value().epoch_churn_queries);
    EXPECT_EQ(without.value().cache_hits, with.value().cache_hits);
    EXPECT_EQ(without.value().cache_invalidations,
              with.value().cache_invalidations);
    EXPECT_EQ(bare_traces, observed_traces);
    EXPECT_FALSE(bare_traces.empty());
    *out = std::move(without).value();
  };
  FleetResult r;
  run_pair(
      LossyFleetOptions(),
      [&](const FleetOptions& o) { return RunFleet(f.tree, f.sub, o); }, &r);
  run_pair(
      versioned,
      [&](const FleetOptions& o) { return RunFleetVersioned(epochs, o); },
      &r);
  EXPECT_GT(r.total_epoch_switches, 0);
  run_pair(
      cached, [&](const FleetOptions& o) { return RunFleet(f.tree, f.sub, o); },
      &r);
  EXPECT_GT(r.cache_hits, 0);
}

TEST(FleetTelemetryTest, ExportsAreByteIdenticalAcrossThreadCounts) {
  FleetFixture f = MakeFixture(60, 902);
  std::string timeline[3], flight[3], prom[3];
  int i = 0;
  for (int threads : {1, 4, 8}) {
    FleetOptions fopt = LossyFleetOptions();
    fopt.num_threads = threads;
    FleetTelemetry telemetry;
    fopt.telemetry = &telemetry;
    auto r = RunFleet(f.tree, f.sub, fopt);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const TelemetryTotals totals = TotalsFromFleet(r.value());
    timeline[i] = telemetry.TimelineJsonl("threads-test", &totals);
    flight[i] = telemetry.flight_records();
    prom[i] = telemetry.PrometheusText();
    ++i;
  }
  EXPECT_FALSE(timeline[0].empty());
  EXPECT_EQ(timeline[0], timeline[1]);
  EXPECT_EQ(timeline[0], timeline[2]);
  EXPECT_EQ(flight[0], flight[1]);
  EXPECT_EQ(flight[0], flight[2]);
  EXPECT_EQ(prom[0], prom[1]);
  EXPECT_EQ(prom[0], prom[2]);
}

TEST(FleetTelemetryTest, WindowSumsMatchEngineTotals) {
  // The invariant tools/telemetry_report.py --check enforces offline,
  // asserted here directly against the engine's FleetResult.
  FleetFixture f = MakeFixture(60, 903);
  FleetOptions fopt = LossyFleetOptions();
  FleetTelemetry telemetry;
  fopt.telemetry = &telemetry;
  auto r = RunFleet(f.tree, f.sub, fopt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const FleetResult& fr = r.value();

  const TelemetryTotals t = telemetry.Totals();
  EXPECT_EQ(t.queries, fr.queries);
  EXPECT_EQ(t.sessions, fr.sessions);
  EXPECT_EQ(t.departures, fr.departures);
  EXPECT_EQ(t.retries, fr.total_retries);
  EXPECT_EQ(t.lost_packets, fr.total_lost_packets);
  EXPECT_EQ(t.corrupted_packets, fr.total_corrupted_packets);
  EXPECT_EQ(t.unrecoverable, fr.unrecoverable_queries);
  EXPECT_EQ(t.fallback, fr.fallback_queries);

  const TimeSeries& ts = telemetry.series();
  EXPECT_EQ(static_cast<int64_t>(ts.CounterTotal(kTsQueriesCompleted)),
            fr.queries);
  // Latency / tuning histograms hold one sample per completed query and
  // their summed packet counts match the engine's means times count.
  EXPECT_EQ(static_cast<int64_t>(ts.HistogramCountTotal(kTsLatency)),
            fr.queries);
  EXPECT_EQ(static_cast<int64_t>(ts.HistogramCountTotal(kTsTuning)),
            fr.queries);
  const Histogram* lat = fr.metrics.FindHistogram(kLatencyHist);
  ASSERT_NE(lat, nullptr);
  EXPECT_DOUBLE_EQ(ts.HistogramSumTotal(kTsLatency), lat->Sum());

  // Heatmap balances against the windowed read counters: every binned
  // packet is counted exactly once on each axis.
  int64_t heat_index = 0, heat_data = 0;
  for (const auto& [w, row] : telemetry.heatmap()) {
    ASSERT_EQ(row.index_reads.size(),
              static_cast<size_t>(telemetry.options().heatmap_bins));
    ASSERT_EQ(row.data_reads.size(),
              static_cast<size_t>(telemetry.options().heatmap_bins));
    for (int64_t c : row.index_reads) heat_index += c;
    for (int64_t c : row.data_reads) heat_data += c;
  }
  EXPECT_EQ(heat_index,
            static_cast<int64_t>(ts.CounterTotal(kTsIndexReads)));
  EXPECT_EQ(heat_data, static_cast<int64_t>(ts.CounterTotal(kTsDataReads)));
  EXPECT_GT(heat_index, 0);
  EXPECT_GT(heat_data, 0);
}

TEST(FleetTelemetryTest, UnrecoverableQueriesLeaveFlightRecords) {
  FleetFixture f = MakeFixture(60, 904);
  FleetOptions fopt = LossyFleetOptions();
  fopt.loss.loss_rate = 0.45;  // brutal channel: retry budgets exhaust
  FleetTelemetry telemetry;
  fopt.telemetry = &telemetry;
  auto r = RunFleet(f.tree, f.sub, fopt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GT(r.value().unrecoverable_queries, 0);
  EXPECT_EQ(telemetry.flight_record_count(),
            r.value().unrecoverable_queries);
  const std::string& flight = telemetry.flight_records();
  EXPECT_NE(flight.find("\"flight\": \"unrecoverable\""), std::string::npos);
  EXPECT_NE(flight.find("\"give_up\""), std::string::npos);
  EXPECT_NE(flight.find("\"events\": ["), std::string::npos);
  // One JSONL line per record.
  int64_t lines = 0;
  for (char ch : flight) lines += ch == '\n';
  EXPECT_EQ(lines, telemetry.flight_record_count());
}

/// Keeps the event walk of every unrecoverable query, keyed (client, q).
class FailedWalkSink : public TraceSink {
 public:
  void Consume(const QueryTrace& t) override {
    if (t.unrecoverable) walks[{t.client_id, t.query_index}] = t.events;
  }
  std::map<std::pair<int64_t, uint64_t>, std::vector<TraceEvent>> walks;
};

/// The "events" array a flight record of `walk` must carry: the walk's
/// last `keep` events, reads with their packet count "n", dozes with
/// their duration "dur".
std::string ExpectedFlightEvents(const std::vector<TraceEvent>& walk,
                                 size_t keep) {
  const std::vector<TraceEvent> tail(
      walk.end() - static_cast<std::ptrdiff_t>(std::min(walk.size(), keep)),
      walk.end());
  std::string out = "[";
  char buf[128];
  for (size_t i = 0; i < tail.size(); ++i) {
    const TraceEvent& e = tail[i];
    std::snprintf(buf, sizeof(buf), "%s{\"t\": \"%s\", \"pos\": %" PRId64,
                  i > 0 ? ", " : "", TraceEventKindName(e.kind), e.pos);
    out += buf;
    int n = 0;
    switch (e.kind) {
      case TraceEventKind::kDoze:
        std::snprintf(buf, sizeof(buf), ", \"dur\": %.10g", e.dur);
        out += buf;
        break;
      case TraceEventKind::kProbe:
      case TraceEventKind::kIndexRead:
        n = 1;
        break;
      case TraceEventKind::kBucketRead:
      case TraceEventKind::kFallbackScan:
        n = e.packet;
        break;
      default:
        break;
    }
    if (n > 0) out += ", \"n\": " + std::to_string(n);
    out += "}";
  }
  return out + "]";
}

int64_t FieldInt(const std::string& line, const std::string& key) {
  const size_t at = line.find("\"" + key + "\": ");
  EXPECT_NE(at, std::string::npos) << key << " missing in " << line;
  if (at == std::string::npos) return 0;
  return std::strtoll(line.c_str() + at + key.size() + 4, nullptr, 10);
}

/// Every flight record must be the tail of its own query's walk, and
/// every unrecoverable query must leave exactly one record. Returns
/// whether any record kept an epoch switch.
bool ExpectRecordsAreWalkTails(const std::string& flight,
                               const FailedWalkSink& sink, size_t keep) {
  EXPECT_FALSE(sink.walks.empty());
  size_t records = 0, truncated = 0;
  bool saw_switch = false;
  for (size_t start = 0; start < flight.size();) {
    const size_t end = flight.find('\n', start);
    const std::string line = flight.substr(start, end - start);
    start = end + 1;
    ++records;
    const auto key = std::make_pair(
        FieldInt(line, "client"),
        static_cast<uint64_t>(FieldInt(line, "q")));
    const auto it = sink.walks.find(key);
    if (it == sink.walks.end()) {
      ADD_FAILURE() << "record of no failed query: " << line;
      continue;
    }
    const size_t at = line.find("\"events\": ") + 10;
    EXPECT_EQ(line.substr(at, line.size() - at - 1),
              ExpectedFlightEvents(it->second, keep))
        << line;
    truncated += it->second.size() > keep;
    saw_switch |= line.find("\"epoch_switch\"") != std::string::npos;
  }
  EXPECT_EQ(records, sink.walks.size());
  EXPECT_GT(truncated, 0u);  // the cap is exercised, not just the tail
  return saw_switch;
}

TEST(FleetTelemetryTest, FlightRecordIsTheTailOfItsQueryTrace) {
  // A black box is the failed query's own walk, not whatever its shard
  // happened to read last: at 20k clients a shard-wide ring of recent
  // events would long have wrapped past the start of a failing walk.
  FleetFixture f = MakeFixture(60, 907);
  FleetOptions fopt = LossyFleetOptions();
  fopt.num_clients = 20000;
  fopt.loss.loss_rate = 0.1;
  fopt.num_threads = 4;
  FailedWalkSink walks;
  FleetTelemetry telemetry;
  fopt.trace_sink = &walks;
  fopt.telemetry = &telemetry;
  auto r = RunFleet(f.tree, f.sub, fopt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const size_t keep = static_cast<size_t>(
      telemetry.options().flight_recorder_capacity);
  EXPECT_EQ(keep, 32u);
  EXPECT_EQ(static_cast<int64_t>(walks.walks.size()),
            r.value().unrecoverable_queries);
  ExpectRecordsAreWalkTails(telemetry.flight_records(), walks, keep);

  // A 3-span versioned fleet: records keep the epoch switches the
  // failing walk survived.
  FleetFixture f2 = MakeFixture(48, 908);
  FleetFixture f3 = MakeFixture(70, 909);
  FleetOptions vopt = LossyFleetOptions();
  vopt.num_clients = 3000;
  vopt.loss.loss_rate = 0.3;
  vopt.loss.max_retries = 4;
  FailedWalkSink vwalks;
  FleetTelemetry vtel;
  vopt.trace_sink = &vwalks;
  vopt.telemetry = &vtel;
  auto v = RunFleetVersioned({{&f.tree, &f.sub, 3, 1},
                              {&f2.tree, &f2.sub, 4, 1},
                              {&f3.tree, &f3.sub, 5, 1}},
                             vopt);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_GT(v.value().total_epoch_switches, 0);
  EXPECT_TRUE(ExpectRecordsAreWalkTails(vtel.flight_records(), vwalks, keep));

  // The experiment driver through TelemetryTraceSink: every trace carries
  // client -1, so a record must still hold only its own query's events.
  auto ds = workload::MakeUniformDataset();
  ASSERT_TRUE(ds.ok());
  core::DTree::Options topt;
  topt.packet_capacity = 256;
  auto tree = core::DTree::Build(ds.value().subdivision, topt);
  ASSERT_TRUE(tree.ok());
  ExperimentOptions eopt;
  eopt.packet_capacity = 256;
  eopt.num_queries = 3000;
  eopt.seed = 12;
  eopt.loss.model = LossModel::kIid;
  eopt.loss.loss_rate = 0.3;
  eopt.loss.seed = 5;
  eopt.loss.max_retries = 2;
  ChannelOptions copt;
  copt.packet_capacity = eopt.packet_capacity;
  auto ch = BroadcastChannel::Create(tree.value().NumIndexPackets(),
                                     ds.value().subdivision.NumRegions(),
                                     copt);
  ASSERT_TRUE(ch.ok());
  FleetTelemetry etel;
  etel.Reset(ch.value().cycle_packets(), 1);
  TelemetryTraceSink tel_sink(&etel);
  FailedWalkSink ewalks;
  TeeTraceSink tee({&tel_sink, &ewalks});
  eopt.trace_sink = &tee;
  auto e = RunExperiment(tree.value(), ds.value().subdivision, nullptr, eopt);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  etel.MergeShards();
  EXPECT_EQ(static_cast<int64_t>(ewalks.walks.size()),
            e.value().unrecoverable_queries);
  ExpectRecordsAreWalkTails(etel.flight_records(), ewalks, keep);
}

TEST(FleetTelemetryTest, MergeShardsIsIdempotent) {
  FleetFixture f = MakeFixture(40, 905);
  FleetOptions fopt = LossyFleetOptions();
  fopt.num_clients = 300;
  FleetTelemetry telemetry;
  fopt.telemetry = &telemetry;
  ASSERT_TRUE(RunFleet(f.tree, f.sub, fopt).ok());
  const std::string once = telemetry.TimelineJsonl();
  telemetry.MergeShards();  // RunFleet already merged; merging again
  telemetry.MergeShards();  // must rebuild, not double-count
  EXPECT_EQ(telemetry.TimelineJsonl(), once);
}

TEST(TelemetryTraceSinkTest, ExperimentTracesProduceConsistentTimeline) {
  // The single-query driver, fed through the trace adapter, must satisfy
  // the same sum-of-windows invariants (minus session lifecycle, which
  // experiment traces do not carry).
  auto ds = workload::MakeUniformDataset();
  ASSERT_TRUE(ds.ok());
  core::DTree::Options topt;
  topt.packet_capacity = 256;
  auto tree = core::DTree::Build(ds.value().subdivision, topt);
  ASSERT_TRUE(tree.ok());

  ExperimentOptions opt;
  opt.packet_capacity = 256;
  opt.num_queries = 500;
  opt.seed = 11;
  opt.loss.model = LossModel::kIid;
  opt.loss.loss_rate = 0.2;
  opt.loss.seed = 3;

  ChannelOptions copt;
  copt.packet_capacity = opt.packet_capacity;
  auto ch = BroadcastChannel::Create(tree.value().NumIndexPackets(),
                                     ds.value().subdivision.NumRegions(),
                                     copt);
  ASSERT_TRUE(ch.ok());

  FleetTelemetry telemetry;
  telemetry.Reset(ch.value().cycle_packets(), 1);
  TelemetryTraceSink sink(&telemetry);
  opt.trace_sink = &sink;
  auto r = RunExperiment(tree.value(), ds.value().subdivision, nullptr, opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  telemetry.MergeShards();

  const TelemetryTotals t = telemetry.Totals();
  EXPECT_EQ(t.queries, static_cast<int64_t>(opt.num_queries));
  EXPECT_EQ(t.retries, r.value().total_retries);
  EXPECT_EQ(t.corrupted_packets, r.value().total_corrupted_packets);
  EXPECT_EQ(t.unrecoverable, r.value().unrecoverable_queries);
  EXPECT_EQ(t.fallback, r.value().fallback_queries);
  EXPECT_EQ(t.sessions, 0);  // no session lifecycle in experiment traces
  EXPECT_EQ(t.departures, 0);
  const std::string timeline = telemetry.TimelineJsonl("experiment");
  EXPECT_NE(timeline.find("\"meta\": \"fleet_telemetry\""),
            std::string::npos);
  EXPECT_NE(timeline.find("\"cell\": \"experiment\""), std::string::npos);
}

TEST(CycleProfilerFleetTest, AttributesFleetIndexReadsToTreeLevels) {
  // Satellite: the cycle profiler consumes the fleet's replayed trace
  // stream and attributes index-packet reads to D-tree levels, exactly
  // as it does for the single-query driver.
  FleetFixture f = MakeFixture(80, 906);
  FleetOptions fopt = LossyFleetOptions();
  fopt.num_clients = 500;

  ChannelOptions copt;
  copt.packet_capacity = fopt.packet_capacity;
  auto ch = BroadcastChannel::Create(f.tree.NumIndexPackets(),
                                     f.sub.NumRegions(), copt);
  ASSERT_TRUE(ch.ok());
  CycleProfiler profiler(ch.value().cycle_packets());
  fopt.trace_sink = &profiler;
  auto r = RunFleet(f.tree, f.sub, fopt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(static_cast<int64_t>(profiler.queries()), r.value().queries);
  EXPECT_GT(profiler.latency_hist().TotalCount(), 0u);
  int64_t level_total = 0;
  for (int64_t c : profiler.level_reads()) level_total += c;
  EXPECT_GT(level_total, 0);  // D-tree probes annotate their path
  int64_t awake = 0;
  for (int64_t c : profiler.position_reads()) awake += c;
  EXPECT_GT(awake, 0);
}

}  // namespace
}  // namespace dtree::bcast
