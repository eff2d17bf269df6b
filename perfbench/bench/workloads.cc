#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>

#include "baselines/kirkpatrick/kirkpatrick.h"
#include "baselines/rstar/rstar.h"
#include "baselines/trapmap/trapmap.h"
#include "broadcast/channel.h"
#include "broadcast/experiment.h"
#include "broadcast/fleet.h"
#include "broadcast/telemetry.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "dtree/dtree.h"
#include "dtree/program.h"
#include "dtree/versioned.h"
#include "subdivision/subdivision.h"
#include "subdivision/voronoi.h"
#include "workload/datasets.h"

namespace perfbench {
namespace {

using dtree::Result;
using dtree::Rng;
using dtree::Status;
namespace bcast = dtree::bcast;
namespace core = dtree::core;
namespace geom = dtree::geom;
namespace sub = dtree::sub;

constexpr int kSites = 1000;      ///< UNIFORM, as in the paper
constexpr int kCapacity = 256;    ///< packet capacity, bytes
constexpr size_t kMinReps = 3;    ///< timed repetitions at the least

// Every generated input comes from its own stream of the run's seed.
uint64_t DatasetSeed(uint64_t seed) { return Rng::MixStream(seed, 1); }
uint64_t QuerySeed(uint64_t seed) { return Rng::MixStream(seed, 2); }
uint64_t UpdateSeed(uint64_t seed) { return Rng::MixStream(seed, 3); }
uint64_t LossSeed(uint64_t seed) { return Rng::MixStream(seed, 4); }
uint64_t GateSeed(uint64_t seed) { return Rng::MixStream(seed, 5); }
uint64_t ReplaySeed(uint64_t seed) { return Rng::MixStream(seed, 6); }

double LatencyP99(const dtree::MetricsRegistry& metrics) {
  const dtree::Histogram* h = metrics.FindHistogram(bcast::kLatencyHist);
  return h == nullptr ? 0.0 : h->Percentile(0.99);
}

SimStats FromFleet(const bcast::FleetResult& r) {
  SimStats s;
  s.queries = r.queries;
  s.tuning_mean = r.mean_tuning_total;
  s.latency_mean = r.mean_latency;
  s.latency_p99 = LatencyP99(r.metrics);
  s.give_ups = r.unrecoverable_queries;
  return s;
}

/// Every scalar of a fleet result plus its latency distribution.
bool SameFleetResult(const bcast::FleetResult& a, const bcast::FleetResult& b) {
  return FromFleet(a) == FromFleet(b) && a.sessions == b.sessions &&
         a.departures == b.departures &&
         a.mean_tuning_index == b.mean_tuning_index &&
         a.mean_retries == b.mean_retries &&
         a.total_retries == b.total_retries &&
         a.total_lost_packets == b.total_lost_packets &&
         a.fallback_queries == b.fallback_queries &&
         a.total_epoch_switches == b.total_epoch_switches &&
         a.epoch_churn_queries == b.epoch_churn_queries &&
         a.cache_hits == b.cache_hits && a.cache_misses == b.cache_misses &&
         a.cache_evictions == b.cache_evictions &&
         a.min_latency == b.min_latency && a.max_latency == b.max_latency &&
         a.min_tuning_total == b.min_tuning_total &&
         a.max_tuning_total == b.max_tuning_total;
}

std::string Fmt(const char* fmt, double a, double b = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

/// Self time of every span called `name`.
double SpanSelf(const SpanRecorder& rec, const std::string& name) {
  const auto by_name = rec.SelfSecondsByName();
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : it->second;
}

/// Runs `unit` once untimed (a warm-up whose statistics become the
/// reference), then repeats it until `seconds` have passed, calling
/// `between` after each timed repetition. Every repetition must reproduce
/// the reference bit for bit.
template <typename Unit>
Status RepeatUnit(double seconds, Outcome* out,
                  const std::function<void()>& between, Unit&& unit) {
  Gate gate{"repeat_identical", 0, 0, "every timed repetition reproduces "
                                      "the warm-up's simulated statistics"};
  Result<SimStats> warm = unit();
  if (!warm.ok()) {
    ++out->failed;
    return warm.status();
  }
  out->sim = warm.value();
  const double start = WallSeconds();
  while (out->reps.size() < kMinReps || WallSeconds() - start < seconds) {
    const double w0 = WallSeconds();
    const double c0 = CpuSeconds();
    Result<SimStats> r = unit();
    const double wall = WallSeconds() - w0;
    const double cpu = CpuSeconds() - c0;
    if (!r.ok()) {
      ++out->failed;
      return r.status();
    }
    out->reps.push_back(Rep{wall, cpu, r.value().queries});
    out->attempted += r.value().queries;
    ++gate.checked;
    if (!(r.value() == out->sim)) ++gate.failed;
    between();
  }
  out->gates.push_back(gate);
  return Status::OK();
}

/// Runs `unit` once outside any span (the untraced reference) and once
/// inside span `name`, recording both walls and the traced call's CPU.
template <typename Unit>
auto TraceUnit(SpanRecorder* rec, const std::string& name,
               TraceReport* report, Unit&& unit) -> decltype(unit()) {
  {
    ScopedSpan span(rec, "trace.untraced_unit");
    const double w0 = WallSeconds();
    auto r = unit();
    report->untraced_unit_s = WallSeconds() - w0;
    if (!r.ok()) return r;
  }
  ScopedSpan span(rec, name);
  const double w0 = WallSeconds();
  const double c0 = CpuSeconds();
  auto r = unit();
  report->traced_unit_s = WallSeconds() - w0;
  report->unit_cpu_s = CpuSeconds() - c0;
  if (r.ok()) report->operations += r.value().queries;
  return r;
}

std::string Verdict(bool confirmed) {
  return confirmed ? "confirmed" : "refuted";
}

/// State every workload shares: UNIFORM sites, their Voronoi
/// subdivision, and (except live-updates, whose server owns them) the
/// D-tree with its channel.
class UniformWorkload : public Workload {
 public:
  explicit UniformWorkload(const RunConfig& config) : config_(config) {}

 protected:
  const geom::BBox area_ = dtree::workload::DefaultServiceArea();

  void BuildSites(SpanRecorder* rec) {
    ScopedSpan span(rec, "workload.dataset");
    Rng rng(DatasetSeed(config_.seed));
    sites_ = dtree::workload::UniformPoints(kSites, area_, &rng);
  }

  /// Voronoi cells, stitched into a subdivision, plus its query sampler.
  Status BuildSubdivision(SpanRecorder* rec) {
    sampler_.reset();
    Result<std::vector<geom::Polygon>> cells = [&] {
      ScopedSpan span(rec, "subdivision.voronoi");
      return sub::VoronoiCells(sites_, area_);
    }();
    if (!cells.ok()) return cells.status();
    {
      ScopedSpan span(rec, "subdivision.stitch");
      Result<sub::Subdivision> s =
          sub::Subdivision::FromPolygons(area_, cells.value());
      if (!s.ok()) return s.status();
      sub_ = std::move(s).value();
    }
    Result<bcast::QuerySampler> sampler = bcast::QuerySampler::Create(
        sub_, bcast::QueryDistribution::kUniformRegion, {});
    if (!sampler.ok()) return sampler.status();
    sampler_.emplace(std::move(sampler).value());
    return Status::OK();
  }

  Status BuildTreeAndChannel(SpanRecorder* rec,
                             const bcast::LossOptions& loss) {
    Result<core::DTree> tree = BuildDTreeTraced(sub_, kCapacity, rec);
    if (!tree.ok()) return tree.status();
    tree_ = std::make_unique<core::DTree>(std::move(tree).value());
    ScopedSpan span(rec, "broadcast.channel");
    bcast::ChannelOptions co;
    co.packet_capacity = kCapacity;
    co.loss = loss;
    Result<bcast::BroadcastChannel> ch = bcast::BroadcastChannel::Create(
        tree_->NumIndexPackets(), sub_.NumRegions(), co);
    if (!ch.ok()) return ch.status();
    channel_.emplace(std::move(ch).value());
    return Status::OK();
  }

  /// The byte-level program of the D-tree's cycle, built only to be
  /// timed (the per-layer dtree.materialize_s).
  Status Materialize(SpanRecorder* rec) {
    ScopedSpan span(rec, "dtree.materialize");
    return core::BroadcastProgram::Materialize(*tree_, *channel_).status();
  }

  /// Build-phase layers measured by the traced set-up (one build each).
  void SetupLayers(const SpanRecorder& rec, TraceReport* report) const {
    for (const char* name :
         {"workload.dataset", "subdivision.voronoi", "subdivision.stitch",
          "dtree.partition", "dtree.paging", "dtree.materialize"}) {
      report->metrics[std::string(name) + "_s"] = SpanSelf(rec, name);
    }
  }

  ReplayInput Replay() const {
    ReplayInput in;
    in.seed = ReplaySeed(config_.seed);
    in.threads = config_.threads;
    in.subdivision = &sub_;
    in.sampler = &*sampler_;
    in.tree = tree_.get();
    in.channel = &*channel_;
    in.mobility.enabled = true;
    in.mobility.hop_scale = 16.0;
    return in;
  }

  RunConfig config_;
  std::vector<geom::Point> sites_;
  sub::Subdivision sub_;
  std::optional<bcast::QuerySampler> sampler_;  ///< borrows sub_
  std::unique_ptr<core::DTree> tree_;
  std::optional<bcast::BroadcastChannel> channel_;
};

// ---------------------------------------------------------------- paper

/// The paper's experiment: RunExperiment on UNIFORM at capacity 256,
/// lossless, uniform-region queries, over all four indexes.
class PaperWorkload final : public UniformWorkload {
 public:
  using UniformWorkload::UniformWorkload;
  static constexpr int kQueriesPerIndex = 100000;
  static constexpr int kGatePoints = 2000;

  Status Setup(SpanRecorder* rec) override {
    indexes_.clear();
    BuildSites(rec);
    DTREE_RETURN_IF_ERROR(BuildSubdivision(rec));
    DTREE_RETURN_IF_ERROR(BuildTreeAndChannel(rec, bcast::LossOptions{}));
    DTREE_RETURN_IF_ERROR(
        AddBaseline<dtree::baselines::RStarTree>(rec, "rstar"));
    DTREE_RETURN_IF_ERROR(
        AddBaseline<dtree::baselines::TrapMap>(rec, "trapmap"));
    DTREE_RETURN_IF_ERROR(
        AddBaseline<dtree::baselines::TrianTree>(rec, "trian"));
    return Status::OK();
  }

  Status Measure(double seconds, Outcome* out,
                 const std::function<void()>& between_reps) override {
    DTREE_RETURN_IF_ERROR(
        RepeatUnit(seconds, out, between_reps, [&] { return Unit(); }));
    for (const bcast::ExperimentResult& r : last_) {
      out->notes.push_back(
          r.index_name + Fmt(": tuning %.4f pkts", r.mean_tuning_total) +
          Fmt(", latency %.2f pkts (normalized %.4f)", r.mean_latency,
              r.normalized_latency));
    }
    return Status::OK();
  }

  void Check(Outcome* out) override {
    Gate gate{"locator", 0, 0, ""};
    const sub::PointLocator locator(sub_);
    Rng rng(GateSeed(config_.seed));
    int64_t ambiguous = 0;
    bcast::ProbeTrace trace;
    for (int i = 0; i < kGatePoints; ++i) {
      const geom::Point p = sampler_->Draw(&rng);
      if (sub_.DistanceToNearestBorder(p) <= geom::kMergeEps * 100.0) {
        ++ambiguous;  // numerically ambiguous, as RunExperiment's oracle
        continue;
      }
      const int expect = locator.Locate(p);
      for (const bcast::AirIndex* index : AllIndexes()) {
        ++gate.checked;
        if (!index->ProbeInto(p, &trace).ok() || trace.region != expect) {
          ++gate.failed;
        }
      }
    }
    gate.detail = "probe region == PointLocator on sampled points (" +
                  std::to_string(ambiguous) + " border points skipped)";
    out->gates.push_back(gate);
  }

  Status Trace(SpanRecorder* rec, TraceReport* report) override {
    auto& m = report->metrics;
    Result<SimStats> sim = TraceUnit(rec, "broadcast.experiment", report,
                                     [&] { return Unit(); });
    if (!sim.ok()) return sim.status();
    DTREE_RETURN_IF_ERROR(Materialize(rec));
    SetupLayers(*rec, report);
    for (const auto& [name, index] : indexes_) {
      m["baselines." + name + ".build_s"] =
          SpanSelf(*rec, "baselines." + name + ".build");
    }
    ReplayInput in = Replay();
    for (const auto& [name, index] : indexes_) {
      in.baselines.emplace_back(name, index.get());
    }
    DTREE_RETURN_IF_ERROR(ReplayLayers(in, rec, report));

    double retries = 0.0;
    for (const auto& r : last_) retries += r.mean_retries;
    const double q = kQueriesPerIndex;
    m["broadcast.experiment_s"] = SpanSelf(*rec, "broadcast.experiment");
    m["broadcast.retries_per_query"] = retries / 4.0;
    // Simulate builds its LossProcess for every query, lossless or not.
    m["broadcast.fault_streams_per_query"] = 1.0 + retries / 4.0;
    UnitCalls calls;
    calls.samples = 4 * q;
    calls.probes = q;
    calls.baseline_probes = q;
    calls.simulates = 4 * q;
    calls.fault_streams = 4 * q * m["broadcast.fault_streams_per_query"];
    Attribute(calls, report);
    const double fault = m["broadcast.fault_stream_cpu_share"];
    report->predictions.push_back(
        "fault streams ~0 on paper (< 2% of unit CPU): " +
        Verdict(fault < 0.02) + Fmt(" (%.1f%%)", 100.0 * fault));
    report->predictions.push_back(
        "cache nonzero only on fleet-mobile: " +
        Verdict(m["broadcast.cache_cpu_share"] == 0.0) +
        " (no lookups here)");
    return Status::OK();
  }

 private:
  template <typename Index>
  Status AddBaseline(SpanRecorder* rec, const std::string& name) {
    ScopedSpan span(rec, "baselines." + name + ".build");
    typename Index::Options opt;
    opt.packet_capacity = kCapacity;
    Result<Index> built = Index::Build(sub_, opt);
    if (!built.ok()) return built.status();
    indexes_.emplace_back(name,
                          std::make_unique<Index>(std::move(built).value()));
    return Status::OK();
  }

  std::vector<const bcast::AirIndex*> AllIndexes() const {
    std::vector<const bcast::AirIndex*> all{tree_.get()};
    for (const auto& [name, index] : indexes_) all.push_back(index.get());
    return all;
  }

  /// One RunExperiment per index; the statistics pool all four.
  Result<SimStats> Unit() {
    bcast::ExperimentOptions opt;
    opt.packet_capacity = kCapacity;
    opt.num_queries = kQueriesPerIndex;
    opt.seed = QuerySeed(config_.seed);
    opt.num_threads = config_.threads;
    last_.clear();
    SimStats s;
    dtree::Histogram latency;
    double tuning = 0.0, lat = 0.0;
    for (const bcast::AirIndex* index : AllIndexes()) {
      Result<bcast::ExperimentResult> r =
          bcast::RunExperiment(*index, sub_, nullptr, opt);
      if (!r.ok()) return r.status();
      const bcast::ExperimentResult& e = r.value();
      s.queries += opt.num_queries;
      tuning += e.mean_tuning_total * opt.num_queries;
      lat += e.mean_latency * opt.num_queries;
      s.give_ups += e.unrecoverable_queries;
      if (const dtree::Histogram* h =
              e.metrics.FindHistogram(bcast::kLatencyHist)) {
        latency.Merge(*h);
      }
      last_.push_back(std::move(r).value());
    }
    s.tuning_mean = tuning / static_cast<double>(s.queries);
    s.latency_mean = lat / static_cast<double>(s.queries);
    s.latency_p99 = latency.Percentile(0.99);
    return s;
  }

  std::vector<std::pair<std::string, std::unique_ptr<bcast::AirIndex>>>
      indexes_;
  std::vector<bcast::ExperimentResult> last_;
};

// ---------------------------------------------------------------- fleets

/// RunFleet with the D-tree on UNIFORM at capacity 256. The lossy variant
/// adds i.i.d. loss, churn and telemetry; the mobile one a Gaussian-hop
/// walk and a region cache per client.
class FleetWorkload final : public UniformWorkload {
 public:
  FleetWorkload(const RunConfig& config, bool mobile)
      : UniformWorkload(config), mobile_(mobile) {}

  static constexpr int64_t kClients = 100000;
  static constexpr int64_t kGateClients = 10000;

  Status Setup(SpanRecorder* rec) override {
    BuildSites(rec);
    DTREE_RETURN_IF_ERROR(BuildSubdivision(rec));
    return BuildTreeAndChannel(rec, Options(kClients).loss);
  }

  Status Measure(double seconds, Outcome* out,
                 const std::function<void()>& between_reps) override {
    const bcast::FleetOptions opt = Options(kClients);
    DTREE_RETURN_IF_ERROR(
        RepeatUnit(seconds, out, between_reps, [&] { return Unit(opt); }));
    out->notes.push_back(Fmt("clients %.0f, departures %.0f", kClients,
                             static_cast<double>(last_.departures)) +
                         Fmt(", retries/query %.4f, give-ups %.0f",
                             last_.mean_retries,
                             static_cast<double>(last_.unrecoverable_queries)));
    if (mobile_) {
      out->notes.push_back(Fmt("cache hits %.0f of %.0f lookups",
                               static_cast<double>(last_.cache_hits),
                               static_cast<double>(last_.cache_hits +
                                                   last_.cache_misses)));
    }
    return Status::OK();
  }

  void Check(Outcome* out) override {
    if (mobile_) {
      // Every cache hit replayed against a forced cold tune-in; the
      // verified run must also equal the unverified one.
      Gate gate{"verify_hits", 1, 0, ""};
      bcast::FleetOptions opt = Options(kGateClients);
      Result<bcast::FleetResult> plain = bcast::RunFleet(*tree_, sub_, opt);
      opt.cache.verify_hits = true;
      Result<bcast::FleetResult> verified = bcast::RunFleet(*tree_, sub_, opt);
      if (!plain.ok() || !verified.ok() ||
          !SameFleetResult(plain.value(), verified.value()) ||
          verified.value().cache_hits == 0) {
        gate.failed = 1;
        gate.detail = verified.ok() ? "verified run differs or has no hits"
                                    : verified.status().ToString();
      } else {
        gate.checked = verified.value().cache_hits;
        gate.detail = "cache hits replayed against cold tune-ins";
      }
      out->gates.push_back(gate);
      return;
    }
    // Reduced copy at 1 thread and at nproc threads: results and the
    // telemetry exports must match byte for byte.
    Gate gate{"thread_identity", 1, 0, ""};
    bcast::FleetOptions opt = Options(kGateClients);
    bcast::FleetTelemetry tel_one, tel_all;
    opt.num_threads = 1;
    opt.telemetry = &tel_one;
    Result<bcast::FleetResult> one = bcast::RunFleet(*tree_, sub_, opt);
    opt.num_threads = config_.threads;
    opt.telemetry = &tel_all;
    Result<bcast::FleetResult> all = bcast::RunFleet(*tree_, sub_, opt);
    if (!one.ok() || !all.ok() || !SameFleetResult(one.value(), all.value()) ||
        tel_one.TimelineJsonl() != tel_all.TimelineJsonl() ||
        tel_one.PrometheusText() != tel_all.PrometheusText()) {
      gate.failed = 1;
      gate.detail = "results or telemetry differ between 1 and " +
                    std::to_string(config_.threads) + " threads";
    } else {
      gate.detail = "1 thread == " + std::to_string(config_.threads) +
                    " threads, results and telemetry exports";
    }
    out->gates.push_back(gate);
  }

  Status Trace(SpanRecorder* rec, TraceReport* report) override {
    auto& m = report->metrics;
    const bcast::FleetOptions opt = Options(kClients);
    // Resident memory the fleet adds at its peak: freed set-up memory goes
    // back to the system first, so the baseline is live data only, and the
    // fleet (tens of MiB) then sets the process's new peak.
    malloc_trim(0);
    const int64_t rss0 = CurrentRssBytes();
    Result<SimStats> sim =
        TraceUnit(rec, "broadcast.fleet", report, [&] { return Unit(opt); });
    if (!sim.ok()) return sim.status();
    m["broadcast.rss_bytes_per_client"] =
        static_cast<double>(PeakRssBytes() - rss0) / kClients;
    const bcast::FleetResult result = last_;
    m["broadcast.fleet_s"] = SpanSelf(*rec, "broadcast.fleet");
    if (!mobile_) {
      bcast::FleetOptions bare = opt;
      bare.telemetry = nullptr;
      ScopedSpan span(rec, "broadcast.fleet_no_telemetry");
      const double w0 = WallSeconds();
      Result<SimStats> r = Unit(bare);
      if (!r.ok()) return r.status();
      m["broadcast.telemetry_s"] =
          m["broadcast.fleet_s"] - (WallSeconds() - w0);
    }
    DTREE_RETURN_IF_ERROR(Materialize(rec));
    SetupLayers(*rec, report);
    ReplayInput in = Replay();
    if (mobile_) {
      in.mobility = opt.mobility;
      in.cache = opt.cache;
    }
    DTREE_RETURN_IF_ERROR(ReplayLayers(in, rec, report));

    const double q = static_cast<double>(result.queries);
    const double lookups =
        static_cast<double>(result.cache_hits + result.cache_misses);
    m["broadcast.retries_per_query"] = result.mean_retries;
    // The fleet engine builds fault streams only when a fault model is on:
    // one per attempt.
    const bool faults = opt.loss.any_fault();
    m["broadcast.fault_streams_per_query"] =
        faults ? 1.0 + result.mean_retries : 0.0;
    if (mobile_) {
      m["broadcast.cache_hit_share"] =
          lookups > 0.0 ? static_cast<double>(result.cache_hits) / lookups
                        : 0.0;
      m["broadcast.cache_entries_mean"] = report->cache_entries_mean;
    }
    UnitCalls calls;
    (mobile_ ? calls.mobility_steps : calls.samples) = q;
    calls.probes = q - static_cast<double>(result.cache_hits);
    calls.fault_streams = q * m["broadcast.fault_streams_per_query"];
    calls.cache_lookups = lookups;
    Attribute(calls, report);

    const double fault = m["broadcast.fault_stream_cpu_share"];
    if (!mobile_) {
      double top_other = 0.0;
      for (const Attribution& a : report->attribution) {
        if (a.layer != "broadcast.fault_stream") {
          top_other = std::max(top_other, a.cpu_share);
        }
      }
      report->predictions.push_back(
          "fault streams dominate fleet-lossy (largest attributed layer): " +
          Verdict(fault > top_other) +
          Fmt(" (%.1f%% of unit CPU vs next %.1f%%)", 100.0 * fault,
              100.0 * top_other));
    }
    const double cache = m["broadcast.cache_cpu_share"];
    report->predictions.push_back(
        "cache nonzero only on fleet-mobile: " +
        Verdict(mobile_ ? cache > 0.0 : cache == 0.0) +
        Fmt(" (%.1f%% of unit CPU)", 100.0 * cache));
    return Status::OK();
  }

 private:
  bcast::FleetOptions Options(int64_t clients) {
    bcast::FleetOptions opt;
    opt.packet_capacity = kCapacity;
    opt.num_clients = clients;
    opt.seed = QuerySeed(config_.seed);
    opt.num_threads = config_.threads;
    if (mobile_) {
      opt.sim_cycles = 2.0;
      opt.queries_per_cycle = 2.0;
      opt.churn = 0.02;
      opt.mobility.enabled = true;
      opt.mobility.model = dtree::workload::MobilityModel::kGaussianHop;
      opt.mobility.hop_scale = 16.0;
      opt.cache.enabled = true;
      opt.cache.byte_budget = 16 * 1024;
    } else {
      opt.sim_cycles = 2.0;
      opt.queries_per_cycle = 1.0;
      opt.churn = 0.05;
      opt.loss.model = bcast::LossModel::kIid;
      opt.loss.loss_rate = 0.1;
      opt.loss.seed = LossSeed(config_.seed);
      opt.telemetry = &telemetry_;
    }
    return opt;
  }

  Result<SimStats> Unit(const bcast::FleetOptions& opt) {
    Result<bcast::FleetResult> r = bcast::RunFleet(*tree_, sub_, opt);
    if (!r.ok()) return r.status();
    last_ = std::move(r).value();
    return FromFleet(last_);
  }

  bool mobile_;
  bcast::FleetTelemetry telemetry_;
  bcast::FleetResult last_;
};

// ---------------------------------------------------------- live-updates

/// A VersionedProgram seeded with the UNIFORM sites takes kCommits timed
/// commits of kUpdatesPerCommit alternating inserts and deletes, then
/// RunFleetVersioned reads across its last kEpochs epochs, lossless.
class LiveUpdatesWorkload final : public UniformWorkload {
 public:
  using UniformWorkload::UniformWorkload;
  static constexpr int kCommits = 128;
  static constexpr int kUpdatesPerCommit = 4;
  static constexpr int kEpochs = 4;
  static constexpr int kOracleEvery = 16;  ///< commits held to the oracle
  static constexpr int64_t kClients = 20000;
  static constexpr int kColdRepeats = 5;

  Status Setup(SpanRecorder* rec) override {
    program_server_.reset();
    BuildSites(rec);
    MakeUpdates();
    ScopedSpan span(rec, "dtree.versioned_create");
    Result<std::unique_ptr<core::VersionedProgram>> vp =
        core::VersionedProgram::Create(sites_, ProgramOptions());
    if (!vp.ok()) return vp.status();
    program_server_ = std::move(vp).value();
    return Status::OK();
  }

  Status Measure(double seconds, Outcome* out,
                 const std::function<void()>& between_reps) override {
    const double start = WallSeconds();
    DTREE_RETURN_IF_ERROR(Commit(nullptr, &out->commit_s, out));
    const double left = std::max(0.0, seconds - (WallSeconds() - start));
    DTREE_RETURN_IF_ERROR(
        RepeatUnit(left, out, between_reps, [&] { return Unit(); }));
    out->notes.push_back(
        Fmt("commits %.0f, epoch switches/query %.5f", kCommits,
            last_.mean_epoch_switches) +
        Fmt(", epoch-churn give-ups %.0f",
            static_cast<double>(last_.epoch_churn_queries)));
    return Status::OK();
  }

  void Check(Outcome* out) override {
    Gate gate{"commit_oracle", 0, 0,
              "sampled commits == cold BuildEpoch: digest of sites and "
              "every frame"};
    for (const auto& [epoch, digest] : sampled_) {
      ++gate.checked;
      Result<std::shared_ptr<const core::EpochState>> cold =
          core::VersionedProgram::BuildEpoch(expected_[epoch],
                                             ProgramOptions(), epoch);
      if (!cold.ok() || Digest(*cold.value()) != digest) ++gate.failed;
    }
    out->gates.push_back(gate);
  }

  Status Trace(SpanRecorder* rec, TraceReport* report) override {
    auto& m = report->metrics;
    std::vector<double> commit_s;
    DTREE_RETURN_IF_ERROR(Commit(rec, &commit_s, nullptr));
    report->operations += kCommits;

    // The commit decomposed: the same steps run cold on the last sites.
    const std::vector<geom::Point> last_sites = epochs_.back()->sites;
    std::map<std::string, std::vector<double>> steps;
    std::vector<double> cold_total;
    for (int r = 0; r < kColdRepeats; ++r) {
      const size_t first = rec->spans().size();
      sites_ = last_sites;
      DTREE_RETURN_IF_ERROR(BuildSubdivision(rec));
      DTREE_RETURN_IF_ERROR(BuildTreeAndChannel(rec, bcast::LossOptions{}));
      DTREE_RETURN_IF_ERROR(Materialize(rec));
      double total = 0.0;
      for (const auto& [name, self] : rec->SelfSecondsByName(first)) {
        steps[name].push_back(self);
        total += self;
      }
      cold_total.push_back(total);
    }
    for (const char* name :
         {"subdivision.voronoi", "subdivision.stitch", "dtree.partition",
          "dtree.paging", "dtree.materialize"}) {
      m[std::string(name) + "_s"] = Median(steps[name]);
    }
    m["workload.dataset_s"] = SpanSelf(*rec, "workload.dataset");
    m["dtree.commit_unattributed_s"] = Median(commit_s) - Median(cold_total);
    std::string top;
    double top_s = -1.0;
    for (const auto& [name, v] : steps) {
      if (Median(v) > top_s) {
        top_s = Median(v);
        top = name;
      }
    }
    report->predictions.push_back(
        "partition dominates a commit: " + Verdict(top == "dtree.partition") +
        " (largest step " + top + Fmt(", %.1f%% of the median commit)",
                                      100.0 * top_s / Median(commit_s)));

    Result<SimStats> sim = TraceUnit(rec, "broadcast.fleet_versioned",
                                     report, [&] { return Unit(); });
    if (!sim.ok()) return sim.status();
    m["broadcast.fleet_versioned_s"] =
        SpanSelf(*rec, "broadcast.fleet_versioned");

    // Replays run against the live epoch; the timeline spans the last
    // kEpochs epochs exactly as the versioned fleet broadcast them.
    std::vector<bcast::EpochSpan> spans;
    std::vector<const bcast::AirIndex*> trees;
    for (const auto& state : epochs_) {
      spans.push_back({&state->channel, state->epoch, 1});
      trees.push_back(&state->tree);
    }
    Result<bcast::BroadcastTimeline> timeline =
        bcast::BroadcastTimeline::Create(spans);
    if (!timeline.ok()) return timeline.status();
    const core::EpochState& live = *epochs_.back();
    Result<bcast::QuerySampler> sampler = bcast::QuerySampler::Create(
        live.subdivision, bcast::QueryDistribution::kUniformRegion, {});
    if (!sampler.ok()) return sampler.status();
    ReplayInput in = Replay();
    in.subdivision = &live.subdivision;
    in.sampler = &sampler.value();
    in.tree = &live.tree;
    in.channel = &live.channel;
    in.timeline = &timeline.value();
    in.timeline_indexes = trees;
    DTREE_RETURN_IF_ERROR(ReplayLayers(in, rec, report));

    const double q = static_cast<double>(last_.queries);
    m["broadcast.epoch_switches_per_query"] = last_.mean_epoch_switches;
    m["broadcast.retries_per_query"] = last_.mean_retries;
    UnitCalls calls;
    calls.samples = q;
    // A client re-probes the new epoch's index after every switch.
    calls.probes = q + static_cast<double>(last_.total_epoch_switches);
    Attribute(calls, report);
    report->predictions.push_back(
        "cache nonzero only on fleet-mobile: " +
        Verdict(m["broadcast.cache_cpu_share"] == 0.0) +
        " (no lookups here)");
    return Status::OK();
  }

 private:
  core::VersionedProgram::Options ProgramOptions() const {
    core::VersionedProgram::Options popt;
    popt.service_area = area_;
    popt.channel.packet_capacity = kCapacity;
    popt.tree.packet_capacity = kCapacity;
    return popt;
  }

  /// Insert candidates keep clear of every live site so no commit trips
  /// the Voronoi separation floor; deletes remove the nearest site.
  geom::Point DrawInsertPoint(const std::vector<geom::Point>& sites,
                              Rng* rng) const {
    const double margin = 8.0 * sub::kMinSiteSeparation;
    for (;;) {
      const geom::Point p{rng->Uniform(area_.min_x + 1.0, area_.max_x - 1.0),
                          rng->Uniform(area_.min_y + 1.0, area_.max_y - 1.0)};
      const bool clear = std::none_of(
          sites.begin(), sites.end(), [&](const geom::Point& s) {
            const double dx = s.x - p.x, dy = s.y - p.y;
            return dx * dx + dy * dy < margin * margin;
          });
      if (clear) return p;
    }
  }

  /// The update batches and, per epoch, the site set a commit must
  /// publish (the oracle's input).
  void MakeUpdates() {
    batches_.assign(kCommits + 1, {});
    expected_.assign(kCommits + 1, {});
    expected_[0] = sites_;
    Rng rng(UpdateSeed(config_.seed));
    std::vector<geom::Point> sites = sites_;
    for (int e = 1; e <= kCommits; ++e) {
      for (int u = 0; u < kUpdatesPerCommit; ++u) {
        const core::SiteUpdate up =
            u % 2 == 0
                ? core::SiteUpdate::Insert(DrawInsertPoint(sites, &rng))
                : core::SiteUpdate::Delete(
                      {rng.Uniform(area_.min_x, area_.max_x),
                       rng.Uniform(area_.min_y, area_.max_y)});
        batches_[e].push_back(up);
        sites = core::VersionedProgram::ApplyUpdates(sites, {up}).value();
      }
      expected_[e] = sites;
    }
  }

  /// Runs every commit, each timed and (when `rec` is enabled) a span.
  /// Keeps the last kEpochs epochs for the fleet and the digest of every
  /// kOracleEvery-th one for the oracle (holding those epochs instead
  /// would inflate the peak RSS with the benchmark's own bookkeeping).
  Status Commit(SpanRecorder* rec, std::vector<double>* commit_s,
                Outcome* out) {
    SpanRecorder off(false);
    if (rec == nullptr) rec = &off;
    epochs_.clear();
    sampled_.clear();
    for (int e = 1; e <= kCommits; ++e) {
      for (const core::SiteUpdate& up : batches_[e]) {
        program_server_->Enqueue(up);
      }
      Result<std::shared_ptr<const core::EpochState>> state = [&] {
        ScopedSpan span(rec, "dtree.commit");
        const double t0 = WallSeconds();
        auto committed = program_server_->CommitEpoch();
        commit_s->push_back(WallSeconds() - t0);
        return committed;
      }();
      if (out != nullptr) {
        ++out->attempted;
        if (!state.ok()) ++out->failed;
      }
      if (!state.ok()) return state.status();
      if (e % kOracleEvery == 0) {
        sampled_.emplace_back(state.value()->epoch, Digest(*state.value()));
      }
      if (e > kCommits - kEpochs) epochs_.push_back(state.value());
    }
    return Status::OK();
  }

  Result<SimStats> Unit() {
    std::vector<bcast::FleetEpoch> epochs;
    for (const auto& state : epochs_) {
      epochs.push_back(
          {&state->tree, &state->subdivision, state->epoch, /*cycles=*/1});
    }
    bcast::FleetOptions opt;
    opt.packet_capacity = kCapacity;
    opt.num_clients = kClients;
    opt.sim_cycles = kEpochs + 1.0;
    opt.queries_per_cycle = 1.0;
    opt.churn = 0.05;
    opt.seed = QuerySeed(config_.seed);
    opt.num_threads = config_.threads;
    Result<bcast::FleetResult> r = bcast::RunFleetVersioned(epochs, opt);
    if (!r.ok()) return r.status();
    last_ = std::move(r).value();
    return FromFleet(last_);
  }

  /// FNV-1a over everything an epoch broadcasts: its id, its sites and
  /// every frame of its program.
  static uint64_t Digest(const core::EpochState& state) {
    uint64_t h = 14695981039346656037ull;
    const auto mix = [&h](const void* data, size_t n) {
      const auto* p = static_cast<const uint8_t*>(data);
      for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
    };
    mix(&state.epoch, sizeof(state.epoch));
    for (const geom::Point& s : state.sites) {
      mix(&s.x, sizeof(s.x));
      mix(&s.y, sizeof(s.y));
    }
    for (int64_t f = 0; f < state.program.num_frames(); ++f) {
      const auto frame = state.program.frame(f);
      mix(frame.data(), frame.size());
    }
    return h;
  }

  std::unique_ptr<core::VersionedProgram> program_server_;
  std::vector<std::vector<core::SiteUpdate>> batches_;
  std::vector<std::vector<geom::Point>> expected_;
  std::vector<std::shared_ptr<const core::EpochState>> epochs_;
  std::vector<std::pair<uint16_t, uint64_t>> sampled_;  ///< (epoch, Digest)
  bcast::FleetResult last_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const RunConfig& config) {
  if (config.workload == "paper") {
    return std::make_unique<PaperWorkload>(config);
  }
  if (config.workload == "fleet-lossy") {
    return std::make_unique<FleetWorkload>(config, /*mobile=*/false);
  }
  if (config.workload == "fleet-mobile") {
    return std::make_unique<FleetWorkload>(config, /*mobile=*/true);
  }
  if (config.workload == "live-updates") {
    return std::make_unique<LiveUpdatesWorkload>(config);
  }
  return nullptr;
}

}  // namespace perfbench
