// Golden pins of the client access protocol under faults.
//
// The lossless paths have absolute golden values elsewhere
// (experiment_parallel_test.cc); every other protocol check in the suite
// is a differential between two simulators. This file pins absolute
// behavior instead: FNV-1a-64 digests of every QueryOutcome field
// (doubles by bit pattern) and of the JSONL trace bytes for
//   * BroadcastChannel::Simulate under i.i.d. loss, Gilbert-Elliott loss,
//     i.i.d.-bit corruption and burst corruption, for max_retries in
//     {0, 3} and fallback_scan_cycles in {0, 2}, including hand-made
//     backward-pointer traces;
//   * a 3-span BroadcastTimeline::Simulate with max_epoch_switches in
//     {0, 8};
//   * RunFleet and RunFleetVersioned with telemetry attached (FleetResult
//     fields, trace stream, timeline JSONL and flight-recorder bytes);
//   * the same fleets with no telemetry attached (FleetResult fields and
//     trace stream), which the engine may schedule differently: RunFleet
//     under loss, corruption and churn, mobile cached fleets with
//     verify_hits off and on, a 3-span RunFleetVersioned and a
//     same-geometry two-epoch cache flush.
// The runs must also cover every ladder rung (see Coverage), so a digest
// that still matches cannot hide a rung that stopped being exercised.
//
// A digest mismatch prints the new value; re-pinning one is a deliberate
// golden change and belongs in its own change with its reason recorded.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "broadcast/channel.h"
#include "broadcast/fleet.h"
#include "broadcast/telemetry.h"
#include "broadcast/trace.h"
#include "broadcast/versioned.h"
#include "common/rng.h"
#include "dtree/dtree.h"
#include "test_util.h"
#include "workload/datasets.h"

#include "gtest/gtest.h"

namespace dtree::bcast {
namespace {

using QueryOutcome = BroadcastChannel::QueryOutcome;

/// FNV-1a over a little-endian byte serialization, so a digest does not
/// depend on the host's byte order.
class Fnv64 {
 public:
  void Byte(uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    for (char c : s) Byte(static_cast<uint8_t>(c));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

void AddOutcome(Fnv64* h, const QueryOutcome& o) {
  h->F64(o.latency);
  h->I64(o.tuning_probe);
  h->I64(o.tuning_index);
  h->I64(o.tuning_data);
  h->I64(o.retries);
  h->I64(o.lost_packets);
  h->I64(o.corrupted_packets);
  h->I64(o.fallback_scan);
  h->I64(o.unrecoverable);
  h->I64(static_cast<int64_t>(o.give_up));
  h->I64(o.epoch);
  h->I64(o.epoch_switches);
  h->I64(o.cache_hit);
}

void AddFleetResult(Fnv64* h, const FleetResult& r) {
  h->Str(r.index_name);
  for (int64_t v : {int64_t{r.packet_capacity}, int64_t{r.m},
                    int64_t{r.index_packets}, r.data_packets,
                    r.cycle_packets, r.horizon_packets, r.num_clients,
                    r.sessions, r.departures, r.queries, r.total_retries,
                    r.total_lost_packets, r.total_corrupted_packets,
                    r.unrecoverable_queries, r.fallback_queries,
                    r.total_epoch_switches, r.epoch_churn_queries,
                    int64_t{r.cache_enabled}, r.cache_hits, r.cache_misses,
                    r.cache_evictions, r.cache_invalidations}) {
    h->I64(v);
  }
  for (double v : {r.mean_latency, r.mean_tuning_index, r.mean_tuning_total,
                   r.mean_retries, r.mean_lost_packets,
                   r.mean_corrupted_packets, r.mean_epoch_switches,
                   r.min_latency, r.max_latency, r.min_tuning_total,
                   r.max_tuning_total}) {
    h->F64(v);
  }
  for (const auto& [name, hist] : r.metrics.histograms()) {
    h->Str(name);
    h->U64(hist.TotalCount());
    h->F64(hist.Sum());
    h->F64(hist.Min());
    h->F64(hist.Max());
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      h->U64(hist.BucketCount(i));
    }
  }
}

/// Which ladder rungs a set of runs exercised, read off the outcomes and
/// their trace events.
struct Coverage {
  std::set<GiveUpStage> stages;
  int fallback_successes = 0;
  bool switch_in_index = false;
  bool switch_in_bucket = false;
  bool switch_in_fallback = false;

  void Observe(const QueryOutcome& o, const QueryTrace& qt) {
    stages.insert(o.give_up);
    if (o.fallback_scan && !o.unrecoverable) ++fallback_successes;
    bool in_fallback = false;
    const TraceEvent* last_read = nullptr;
    for (const TraceEvent& e : qt.events) {
      switch (e.kind) {
        case TraceEventKind::kFallbackScan:
          in_fallback = true;
          last_read = &e;
          break;
        case TraceEventKind::kIndexRead:
        case TraceEventKind::kBucketRead:
          last_read = &e;
          break;
        case TraceEventKind::kEpochSwitch:
          if (in_fallback) {
            switch_in_fallback = true;
          } else if (last_read != nullptr &&
                     last_read->kind == TraceEventKind::kIndexRead &&
                     last_read->pos == e.pos) {
            switch_in_index = true;
          } else if (last_read != nullptr &&
                     last_read->kind == TraceEventKind::kBucketRead &&
                     e.pos >= last_read->pos &&
                     e.pos < last_read->pos + last_read->packet) {
            switch_in_bucket = true;
          }
          break;
        default:
          break;
      }
    }
  }
};

/// Collects digests by case name and compares them with the pinned table,
/// printing every mismatch as a ready-to-paste table row.
class GoldenTable {
 public:
  void Record(const std::string& name, uint64_t digest) {
    actual_[name] = digest;
  }
  void ExpectMatches(const std::map<std::string, uint64_t>& expected) const {
    EXPECT_EQ(actual_.size(), expected.size());
    for (const auto& [name, digest] : actual_) {
      const auto it = expected.find(name);
      const uint64_t want = it == expected.end() ? 0 : it->second;
      char row[128];
      std::snprintf(row, sizeof(row), "{\"%s\", 0x%016llxULL},",
                    name.c_str(), static_cast<unsigned long long>(digest));
      EXPECT_EQ(digest, want) << "golden row: " << row;
    }
  }

 private:
  std::map<std::string, uint64_t> actual_;
};

constexpr int kCapacity = 64;

struct IndexRig {
  sub::Subdivision sub;
  core::DTree tree;
};

std::unique_ptr<IndexRig> MakeIndexRig(int sites, uint64_t seed,
                                       int capacity) {
  sub::Subdivision s = test::RandomVoronoi(sites, seed);
  core::DTree::Options topt;
  topt.packet_capacity = capacity;
  core::DTree t = core::DTree::Build(s, topt).value();
  return std::make_unique<IndexRig>(IndexRig{std::move(s), std::move(t)});
}

BroadcastChannel MakeChannel(const IndexRig& rig, const LossOptions& loss) {
  ChannelOptions copt;
  copt.packet_capacity = kCapacity;
  copt.loss = loss;
  return BroadcastChannel::Create(rig.tree.NumIndexPackets(),
                                  rig.sub.NumRegions(), copt)
      .value();
}

/// The four fault models the channel sweep crosses with the budgets.
std::vector<std::pair<std::string, LossOptions>> FaultModels() {
  std::vector<std::pair<std::string, LossOptions>> models(4);
  models[0].first = "iid_loss";
  models[0].second.model = LossModel::kIid;
  models[0].second.loss_rate = 0.2;
  models[0].second.seed = 31;
  models[1].first = "ge_loss";
  models[1].second.model = LossModel::kGilbertElliott;
  models[1].second.p_good_to_bad = 0.1;
  models[1].second.loss_bad = 0.9;
  models[1].second.seed = 32;
  models[2].first = "iid_bits";
  models[2].second.corruption.model = CorruptionModel::kIidBits;
  models[2].second.corruption.bit_error_rate = 3e-4;
  models[2].second.corruption.seed = 33;
  models[3].first = "burst_bits";
  models[3].second.corruption.model = CorruptionModel::kBurstBits;
  models[3].second.corruption.p_good_to_bad = 0.1;
  models[3].second.corruption.ber_bad = 3e-3;
  models[3].second.corruption.seed = 34;
  return models;
}

std::string Budgets(int retries, int fallback) {
  return "/r" + std::to_string(retries) + "/f" + std::to_string(fallback);
}

/// Simulates one query with tracing on and folds the outcome plus the
/// serialized trace line into `h`.
template <typename SimulateFn>
void RunTraced(Fnv64* h, Coverage* cov, uint64_t q, double x, double y,
               int region, double arrival, SimulateFn simulate) {
  QueryTrace qt;
  qt.query_index = q;
  qt.x = x;
  qt.y = y;
  qt.region = region;
  qt.arrival = arrival;
  Result<QueryOutcome> out = simulate(&qt);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  AddOutcome(h, out.value());
  h->Str(FormatQueryTraceJson(qt, ""));
  cov->Observe(out.value(), qt);
}

const std::map<std::string, uint64_t>& ExpectedChannelDigests() {
  static const std::map<std::string, uint64_t> kTable = {
      {"backward/burst_bits/r0/f0", 0x0df9c9d6176dc896ULL},
      {"backward/burst_bits/r0/f2", 0x782d6084023efbb7ULL},
      {"backward/burst_bits/r3/f0", 0x5dddeccc4d9d29c2ULL},
      {"backward/burst_bits/r3/f2", 0xc099bf3d9b5840a6ULL},
      {"backward/ge_loss/r0/f0", 0xff4ac9fb38df29c5ULL},
      {"backward/ge_loss/r0/f2", 0x58606ee45488fc19ULL},
      {"backward/ge_loss/r3/f0", 0x693fcb5093092201ULL},
      {"backward/ge_loss/r3/f2", 0x6291f6bd20cd06f4ULL},
      {"backward/iid_bits/r0/f0", 0xe641c559230999d2ULL},
      {"backward/iid_bits/r0/f2", 0xa9e00bb44284dc7eULL},
      {"backward/iid_bits/r3/f0", 0xfa9a3159ca65baadULL},
      {"backward/iid_bits/r3/f2", 0x4e83412f115ba105ULL},
      {"backward/iid_loss/r0/f0", 0x686b61f20c710aefULL},
      {"backward/iid_loss/r0/f2", 0x5dc601852f438106ULL},
      {"backward/iid_loss/r3/f0", 0x6eceeb24040c46aaULL},
      {"backward/iid_loss/r3/f2", 0x298bf72d942b1cc9ULL},
      {"backward/lossless", 0xdc1255c3e9d648efULL},
      {"channel/burst_bits/r0/f0", 0xab3d1deaa40acbdcULL},
      {"channel/burst_bits/r0/f2", 0x029a8d4443811375ULL},
      {"channel/burst_bits/r3/f0", 0x0f694cdc746ae817ULL},
      {"channel/burst_bits/r3/f2", 0xd1550074ae7f7b61ULL},
      {"channel/ge_loss/r0/f0", 0xafea4add800616c2ULL},
      {"channel/ge_loss/r0/f2", 0x31c0e14da5da0121ULL},
      {"channel/ge_loss/r3/f0", 0x8ed8c661bb15e658ULL},
      {"channel/ge_loss/r3/f2", 0x2738372dda67c7b6ULL},
      {"channel/iid_bits/r0/f0", 0xdae81736d5a33cfaULL},
      {"channel/iid_bits/r0/f2", 0x067f9706365166c6ULL},
      {"channel/iid_bits/r3/f0", 0x460465eac0988441ULL},
      {"channel/iid_bits/r3/f2", 0x4658683bb8c2136bULL},
      {"channel/iid_loss/r0/f0", 0x6f0272a308f5a802ULL},
      {"channel/iid_loss/r0/f2", 0x62d0b6b94a677647ULL},
      {"channel/iid_loss/r3/f0", 0x726fd14d81e0374aULL},
      {"channel/iid_loss/r3/f2", 0x9ed2228a07cd0056ULL},
  };
  return kTable;
}

const std::map<std::string, uint64_t>& ExpectedTimelineDigests() {
  static const std::map<std::string, uint64_t> kTable = {
      {"timeline/burst_bits/r3/f0/s0", 0xc07858b8e20e2789ULL},
      {"timeline/burst_bits/r3/f0/s8", 0xe7b8eb27ff8a2bceULL},
      {"timeline/clean/s0", 0x1686cadcf3a319b1ULL},
      {"timeline/clean/s8", 0x933dc16d981ae43fULL},
      {"timeline/ge_loss/r0/f0/s0", 0x99e955aef53612aaULL},
      {"timeline/ge_loss/r0/f0/s8", 0x46c4366d687e8673ULL},
      {"timeline/iid_loss/r0/f2/s0", 0x8be329eb27aa4dd8ULL},
      {"timeline/iid_loss/r0/f2/s8", 0xe5625f2cc4af8aa9ULL},
      {"timeline/iid_loss/r3/f2/s0", 0xad2b151c0539e0f7ULL},
      {"timeline/iid_loss/r3/f2/s8", 0xe67d05fbcb58ba90ULL},
  };
  return kTable;
}

const std::map<std::string, uint64_t>& ExpectedFleetDigests() {
  static const std::map<std::string, uint64_t> kTable = {
      {"fleet/flight", 0xc157e3f553780d9bULL},
      {"fleet/result", 0x67cc99291ade9b81ULL},
      {"fleet/timeline", 0x2226476733ff48e0ULL},
      {"fleet/traces", 0xf6bd4737e96ad572ULL},
      {"versioned/s0/flight", 0x5c4e841e1461e48fULL},
      {"versioned/s0/result", 0x2aa770da0bc8bbcdULL},
      {"versioned/s0/timeline", 0x1d157511c4c259b4ULL},
      {"versioned/s0/traces", 0x77536870c2d010bfULL},
      {"versioned/s8/flight", 0x0927d2fd6cc5a75fULL},
      {"versioned/s8/result", 0x0ca5a132299aa3e8ULL},
      {"versioned/s8/timeline", 0x01e7f315af22e0f1ULL},
      {"versioned/s8/traces", 0xfb24d5b229ab145bULL},
      {"versioned_cache/flight", 0x6b5683433a62a0c8ULL},
      {"versioned_cache/result", 0x07445e2a74cda6bdULL},
      {"versioned_cache/timeline", 0x3eb6227f48ea6856ULL},
      {"versioned_cache/traces", 0x0fba477facf61e59ULL},
  };
  return kTable;
}

TEST(ProtocolGoldenTest, ChannelSimulateUnderEveryFaultModel) {
  const std::unique_ptr<IndexRig> rig = MakeIndexRig(60, 1301, kCapacity);
  // The hand-made DAG trace of broadcast_test.cc (BackwardPointerEarly-
  // InFirstCycle): packet 1 is read after packet 3, so every attempt waits
  // for the next index repetition.
  ChannelOptions small_opt;
  small_opt.packet_capacity = 1024;  // bucket = 1 packet
  small_opt.m = 2;
  ProbeTrace backward;
  backward.region = 1;
  backward.packets = {3, 1};

  GoldenTable golden;
  Coverage cov;
  for (const auto& [model_name, model] : FaultModels()) {
    for (int retries : {0, 3}) {
      for (int fallback : {0, 2}) {
        LossOptions loss = model;
        loss.max_retries = retries;
        loss.fallback_scan_cycles = fallback;
        const std::string name = model_name + Budgets(retries, fallback);

        const BroadcastChannel ch = MakeChannel(*rig, loss);
        const double cycle = static_cast<double>(ch.cycle_packets());
        Fnv64 h;
        Rng rng(7001);
        for (uint64_t q = 0; q < 150; ++q) {
          const geom::Point p = test::UnambiguousQueryPoint(rig->sub, &rng);
          const ProbeTrace trace = rig->tree.Probe(p).value();
          const double arrival = rng.Uniform(0.0, cycle);
          RunTraced(&h, &cov, q, p.x, p.y, trace.region, arrival,
                    [&](QueryTrace* qt) {
                      return ch.Simulate(trace, arrival, q, qt);
                    });
        }
        golden.Record("channel/" + name, h.value());

        small_opt.loss = loss;
        const BroadcastChannel small =
            BroadcastChannel::Create(4, 4, small_opt).value();
        Fnv64 hb;
        for (uint64_t q = 0; q < 48; ++q) {
          const double arrival = 0.25 * static_cast<double>(q);
          RunTraced(&hb, &cov, q, 0.0, 0.0, backward.region, arrival,
                    [&](QueryTrace* qt) {
                      return small.Simulate(backward, arrival, q, qt);
                    });
        }
        golden.Record("backward/" + name, hb.value());
      }
    }
  }

  // Lossless reference for the hand-made trace, including the absolute
  // value derived by hand in broadcast_test.cc.
  small_opt.loss = LossOptions{};
  const BroadcastChannel small =
      BroadcastChannel::Create(4, 4, small_opt).value();
  EXPECT_EQ(small.Simulate(backward, 0.0).value().latency, 18.0);
  Fnv64 hb;
  for (uint64_t q = 0; q < 48; ++q) {
    const double arrival = 0.25 * static_cast<double>(q);
    RunTraced(&hb, &cov, q, 0.0, 0.0, backward.region, arrival,
              [&](QueryTrace* qt) {
                return small.Simulate(backward, arrival, q, qt);
              });
  }
  golden.Record("backward/lossless", hb.value());

  golden.ExpectMatches(ExpectedChannelDigests());
  for (GiveUpStage s : {GiveUpStage::kNone, GiveUpStage::kProbeBudget,
                        GiveUpStage::kRetryBudget,
                        GiveUpStage::kFallbackBudget}) {
    EXPECT_TRUE(cov.stages.count(s)) << GiveUpStageName(s);
  }
  EXPECT_GT(cov.fallback_successes, 0);
}

TEST(ProtocolGoldenTest, ThreeSpanTimelineSimulate) {
  std::vector<std::unique_ptr<IndexRig>> rigs;
  rigs.push_back(MakeIndexRig(40, 1311, kCapacity));
  rigs.push_back(MakeIndexRig(52, 1312, kCapacity));
  rigs.push_back(MakeIndexRig(33, 1313, kCapacity));

  std::vector<std::pair<std::string, LossOptions>> configs(5);
  configs[0].first = "clean";
  configs[1].first = "iid_loss/r3/f2";
  configs[1].second.model = LossModel::kIid;
  configs[1].second.loss_rate = 0.2;
  configs[1].second.seed = 41;
  configs[1].second.max_retries = 3;
  configs[1].second.fallback_scan_cycles = 2;
  configs[2].first = "iid_loss/r0/f2";
  configs[2].second.model = LossModel::kIid;
  configs[2].second.loss_rate = 0.3;
  configs[2].second.seed = 42;
  configs[2].second.max_retries = 0;
  configs[2].second.fallback_scan_cycles = 2;
  configs[3].first = "burst_bits/r3/f0";
  configs[3].second.corruption.model = CorruptionModel::kBurstBits;
  configs[3].second.corruption.ber_bad = 3e-3;
  configs[3].second.corruption.seed = 43;
  configs[3].second.max_retries = 3;
  configs[4].first = "ge_loss/r0/f0";
  configs[4].second.model = LossModel::kGilbertElliott;
  configs[4].second.loss_bad = 0.9;
  configs[4].second.seed = 44;
  configs[4].second.max_retries = 0;

  GoldenTable golden;
  Coverage cov;
  for (const auto& [config_name, base] : configs) {
    for (int switches : {0, 8}) {
      LossOptions loss = base;
      loss.max_epoch_switches = switches;
      std::vector<BroadcastChannel> channels;
      for (const auto& rig : rigs) {
        channels.push_back(MakeChannel(*rig, loss));
      }
      const BroadcastTimeline tl =
          BroadcastTimeline::Create({{&channels[0], 3, 1},
                                     {&channels[1], 4, 2},
                                     {&channels[2], 5, 1}})
              .value();
      const double horizon = static_cast<double>(
          tl.span_start(2) + channels[2].cycle_packets());
      Fnv64 h;
      Rng rng(7002);
      for (uint64_t q = 0; q < 240; ++q) {
        const geom::Point p =
            test::UnambiguousQueryPoint(rigs[0]->sub, &rng);
        std::vector<ProbeTrace> traces;
        for (const auto& rig : rigs) {
          traces.push_back(rig->tree.Probe(p).value());
        }
        const double arrival = rng.Uniform(0.0, horizon);
        RunTraced(&h, &cov, q, p.x, p.y, traces[0].region, arrival,
                  [&](QueryTrace* qt) {
                    return tl.Simulate(traces, arrival, q, qt);
                  });
      }
      golden.Record("timeline/" + config_name + "/s" +
                        std::to_string(switches),
                    h.value());
    }
  }

  golden.ExpectMatches(ExpectedTimelineDigests());
  EXPECT_TRUE(cov.stages.count(GiveUpStage::kEpochChurn));
  EXPECT_GT(cov.fallback_successes, 0);
  EXPECT_TRUE(cov.switch_in_index);
  EXPECT_TRUE(cov.switch_in_bucket);
  EXPECT_TRUE(cov.switch_in_fallback);
}

FleetOptions GoldenFleetOptions() {
  FleetOptions fopt;
  fopt.packet_capacity = 256;
  fopt.num_clients = 300;
  fopt.sim_cycles = 4.0;
  fopt.queries_per_cycle = 1.0;
  fopt.churn = 0.1;
  fopt.seed = 2024;
  fopt.num_threads = 2;
  fopt.loss.model = LossModel::kIid;
  fopt.loss.loss_rate = 0.15;
  fopt.loss.seed = 51;
  fopt.loss.corruption.model = CorruptionModel::kIidBits;
  fopt.loss.corruption.bit_error_rate = 2e-5;
  fopt.loss.corruption.seed = 52;
  fopt.loss.max_retries = 2;
  fopt.loss.fallback_scan_cycles = 2;
  return fopt;
}

/// Runs `run` with a trace sink and telemetry attached and records the
/// four digests of one fleet case.
template <typename RunFn>
void RecordFleetCase(GoldenTable* golden, const std::string& name,
                     FleetOptions fopt, RunFn run) {
  std::string traces;
  JsonlTraceSink sink(&traces);
  FleetTelemetry telemetry;
  fopt.trace_sink = &sink;
  fopt.telemetry = &telemetry;
  Result<FleetResult> res = run(fopt);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_GT(res.value().queries, 0);
  Fnv64 hr, ht, hl, hf;
  AddFleetResult(&hr, res.value());
  ht.Str(traces);
  const TelemetryTotals totals = TotalsFromFleet(res.value());
  hl.Str(telemetry.TimelineJsonl(name, &totals));
  hf.Str(telemetry.flight_records());
  golden->Record(name + "/result", hr.value());
  golden->Record(name + "/traces", ht.value());
  golden->Record(name + "/timeline", hl.value());
  golden->Record(name + "/flight", hf.value());
}

const std::map<std::string, uint64_t>& ExpectedUntelemeteredDigests() {
  static const std::map<std::string, uint64_t> kTable = {
      {"off/cache_flush/result", 0xfd2886377deb2a38ULL},
      {"off/cache_flush/traces", 0x4018a17ab952233cULL},
      {"off/fleet/result", 0x67cc99291ade9b81ULL},
      {"off/fleet/traces", 0xf6bd4737e96ad572ULL},
      {"off/mobile_cache/verify0/result", 0xf5ae2db91711b01bULL},
      {"off/mobile_cache/verify0/traces", 0x14fce4d8ad1b552eULL},
      {"off/mobile_cache/verify1/result", 0xf5ae2db91711b01bULL},
      {"off/mobile_cache/verify1/traces", 0x14fce4d8ad1b552eULL},
      {"off/versioned/s0/result", 0x2aa770da0bc8bbcdULL},
      {"off/versioned/s0/traces", 0x77536870c2d010bfULL},
      {"off/versioned/s8/result", 0x0ca5a132299aa3e8ULL},
      {"off/versioned/s8/traces", 0xfb24d5b229ab145bULL},
  };
  return kTable;
}

TEST(ProtocolGoldenTest, FleetAndVersionedFleetWithTelemetry) {
  std::vector<std::unique_ptr<IndexRig>> rigs;
  rigs.push_back(MakeIndexRig(60, 1321, 256));
  rigs.push_back(MakeIndexRig(48, 1322, 256));
  rigs.push_back(MakeIndexRig(70, 1323, 256));
  std::vector<FleetEpoch> epochs;
  epochs.push_back({&rigs[0]->tree, &rigs[0]->sub, 7, 1});
  epochs.push_back({&rigs[1]->tree, &rigs[1]->sub, 8, 2});
  epochs.push_back({&rigs[2]->tree, &rigs[2]->sub, 9, 1});

  GoldenTable golden;
  RecordFleetCase(&golden, "fleet", GoldenFleetOptions(),
                  [&](const FleetOptions& fopt) {
                    return RunFleet(rigs[0]->tree, rigs[0]->sub, fopt);
                  });
  for (int switches : {0, 8}) {
    FleetOptions fopt = GoldenFleetOptions();
    fopt.loss.max_epoch_switches = switches;
    RecordFleetCase(&golden, "versioned/s" + std::to_string(switches), fopt,
                    [&](const FleetOptions& o) {
                      return RunFleetVersioned(epochs, o);
                    });
  }
  // Moving clients with region caches: hits skip the protocol, and an
  // observed epoch switch flushes the cache mid-query.
  FleetOptions cached = GoldenFleetOptions();
  cached.queries_per_cycle = 4.0;
  cached.mobility.enabled = true;
  cached.mobility.hop_scale = 20.0;
  cached.cache.enabled = true;
  RecordFleetCase(&golden, "versioned_cache", cached,
                  [&](const FleetOptions& o) {
                    return RunFleetVersioned(epochs, o);
                  });

  golden.ExpectMatches(ExpectedFleetDigests());
}

/// Runs `run` with only a trace sink attached and records the result and
/// trace digests of one fleet case; `*out` (nullable) receives the result.
template <typename RunFn>
void RecordUntelemeteredCase(GoldenTable* golden, const std::string& name,
                             FleetOptions fopt, RunFn run,
                             FleetResult* out = nullptr) {
  std::string traces;
  JsonlTraceSink sink(&traces);
  fopt.trace_sink = &sink;
  fopt.telemetry = nullptr;
  Result<FleetResult> res = run(fopt);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_GT(res.value().queries, 0);
  Fnv64 hr, ht;
  AddFleetResult(&hr, res.value());
  ht.Str(traces);
  golden->Record(name + "/result", hr.value());
  golden->Record(name + "/traces", ht.value());
  if (out != nullptr) *out = std::move(res).value();
}

TEST(ProtocolGoldenTest, FleetAndVersionedFleetWithoutTelemetry) {
  std::vector<std::unique_ptr<IndexRig>> rigs;
  rigs.push_back(MakeIndexRig(60, 1321, 256));
  rigs.push_back(MakeIndexRig(48, 1322, 256));
  rigs.push_back(MakeIndexRig(70, 1323, 256));
  std::vector<FleetEpoch> epochs;
  epochs.push_back({&rigs[0]->tree, &rigs[0]->sub, 7, 1});
  epochs.push_back({&rigs[1]->tree, &rigs[1]->sub, 8, 2});
  epochs.push_back({&rigs[2]->tree, &rigs[2]->sub, 9, 1});

  GoldenTable golden;
  RecordUntelemeteredCase(&golden, "off/fleet", GoldenFleetOptions(),
                          [&](const FleetOptions& fopt) {
                            return RunFleet(rigs[0]->tree, rigs[0]->sub,
                                            fopt);
                          });
  for (int switches : {0, 8}) {
    FleetOptions fopt = GoldenFleetOptions();
    fopt.loss.max_epoch_switches = switches;
    RecordUntelemeteredCase(&golden,
                            "off/versioned/s" + std::to_string(switches),
                            fopt, [&](const FleetOptions& o) {
                              return RunFleetVersioned(epochs, o);
                            });
  }

  // Mobile clients with region caches on one epoch; verify_hits replays
  // every hit against a cold probe and must not change a single output.
  const workload::Dataset uniform = workload::MakeUniformDataset().value();
  core::DTree::Options topt;
  topt.packet_capacity = 256;
  const core::DTree uniform_tree =
      core::DTree::Build(uniform.subdivision, topt).value();
  FleetResult cached;
  for (bool verify : {false, true}) {
    FleetOptions fopt = GoldenFleetOptions();
    fopt.queries_per_cycle = 4.0;
    fopt.mobility.enabled = true;
    fopt.mobility.hop_scale = 4.0;
    fopt.cache.enabled = true;
    fopt.cache.verify_hits = verify;
    RecordUntelemeteredCase(
        &golden, std::string("off/mobile_cache/verify") + (verify ? "1" : "0"),
        fopt,
        [&](const FleetOptions& o) {
          return RunFleet(uniform_tree, uniform.subdivision, o);
        },
        &cached);
    EXPECT_GT(cached.cache_hits, 0);
  }

  // The same geometry under two epoch ids: every client that observes the
  // switch flushes its cache, and verified hits stay a strict differential.
  FleetOptions flush;
  flush.packet_capacity = 256;
  flush.num_clients = 128;
  flush.sim_cycles = 8.0;
  flush.queries_per_cycle = 2.0;
  flush.seed = 23;
  flush.mobility.enabled = true;
  flush.mobility.model = workload::MobilityModel::kGaussianHop;
  flush.mobility.hop_scale = 4.0;
  flush.cache.enabled = true;
  flush.cache.verify_hits = true;
  const std::vector<FleetEpoch> same_geometry = {
      {&uniform_tree, &uniform.subdivision, /*epoch=*/0, /*cycles=*/2},
      {&uniform_tree, &uniform.subdivision, /*epoch=*/7, /*cycles=*/1}};
  FleetResult flushed;
  RecordUntelemeteredCase(
      &golden, "off/cache_flush", flush,
      [&](const FleetOptions& o) {
        return RunFleetVersioned(same_geometry, o);
      },
      &flushed);
  EXPECT_GT(flushed.cache_hits, 0);
  EXPECT_GT(flushed.cache_invalidations, 0);

  golden.ExpectMatches(ExpectedUntelemeteredDigests());
}

}  // namespace
}  // namespace dtree::bcast
