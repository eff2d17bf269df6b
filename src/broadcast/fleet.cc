#include "broadcast/fleet.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "broadcast/client_protocol.h"
#include "broadcast/telemetry.h"
#include "broadcast/versioned.h"
#include "common/check.h"
#include "common/thread_pool.h"

namespace dtree::bcast {

namespace {

/// What a client slot's next wake-up does. Within a query, the protocol
/// (broadcast/client_protocol.h) decides: probe bursts, bucket retrievals
/// and the fallback scan are contiguous listening, one step each; the
/// index descent dozes between packets (the paper's core energy
/// mechanism). A shard wakes a client only for events another client can
/// observe (see ShardEngine::Advance): the session start and the query's
/// completion.
enum class SlotPhase : uint8_t {
  kJoin,  ///< session start; issue the first query
  /// The in-flight query is already played out; complete it at its stored
  /// time `done`. Cache hits land here too (done = arrival: zero latency,
  /// zero tuning). Completion goes through the queue, not recursion, so an
  /// unbroken run of queries cannot grow the stack.
  kComplete,
  kRetired,  ///< horizon reached; never scheduled again
};

/// One client slot: the in-flight query's protocol state plus the
/// client's identity and arrival process. Kept small on purpose (a
/// million clients is a few hundred MB; the bound is asserted below). The
/// fault processes are NOT resident: their state is a pure function of
/// the (seed, client, purpose) stream keys, so ClientProtocol rebuilds
/// each draw sequence from its key inside the step that needs it.
struct Client {
  ClientState st;
  uint64_t key = 0;          ///< FleetClientKey(seed, client_id)
  double done = 0.0;         ///< completion time when phase is kComplete
  double px = 0.0;           ///< in-flight query point (for re-probes
  double py = 0.0;           ///< after an epoch switch)
  /// In-flight query's index search under st.span's index; the probe-path
  /// annotation (origins) is kept only when tracing.
  ProbeTrace trace;
  /// In-flight query's trace; allocated per query only when tracing.
  std::unique_ptr<QueryTrace> qt;
  /// Mobility walk state (FleetOptions::mobility); reset on churn.
  workload::MobilityState walk;
  /// Region cache (FleetOptions::cache); allocated lazily on the first
  /// issued query when enabled, Clear()ed on churn so the next occupant
  /// starts cold.
  std::unique_ptr<RegionCache> cache;
  uint32_t generation = 0;   ///< churn generation occupying this slot
  uint32_t query_index = 0;  ///< queries issued by this session
  SlotPhase phase = SlotPhase::kJoin;
};
// The per-client footprint bound of DESIGN.md §13. A resident fault
// process (LossProcess + CorruptionProcess, ~5 KB) must never slip into
// the protocol state.
static_assert(sizeof(Client) <= 264, "fleet client slot grew past 264 B");

/// Private per-shard accumulator, merged in shard order (the same
/// determinism pattern as RunExperiment's ShardSums).
struct FleetShard {
  double latency = 0.0;
  double tuning_index = 0.0;
  double tuning_total = 0.0;
  int64_t retries = 0;
  int64_t lost_packets = 0;
  int64_t corrupted_packets = 0;
  int64_t unrecoverable = 0;
  int64_t fallback = 0;
  int64_t epoch_switches = 0;
  int64_t epoch_churn = 0;
  int64_t queries = 0;
  int64_t sessions = 0;
  int64_t departures = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  int64_t cache_invalidations = 0;
  MetricsRegistry metrics;
  std::vector<QueryTrace> traces;
  Status error = Status::OK();
};

/// What the engine needs about one epoch beyond its channel layout (which
/// the protocol's span table holds), shared read-only across shards.
struct SpanContext {
  const AirIndex* index = nullptr;
  const QuerySampler* sampler = nullptr;
  geom::BBox area;  ///< service area (mobility walk bounds)
  /// Region cell polygons, materialized once and shared read-only: the
  /// valid scope a client caches after answering a query in this epoch.
  /// Empty unless FleetOptions::cache is enabled.
  std::vector<geom::Polygon> region_polys;
};

/// Wake-up entry; min-heap by (time, slot). The slot tie-break pins the
/// pop order when many clients wake at the same packet start, so shard
/// sums accumulate in one fixed order regardless of anything external.
struct WakeUp {
  double t = 0.0;
  int32_t slot = 0;  ///< shard-local client index
};
struct WakeUpLater {
  bool operator()(const WakeUp& a, const WakeUp& b) const {
    if (a.t != b.t) return a.t > b.t;
    return a.slot > b.slot;
  }
};

/// Everything one shard needs to run its event loop. Shards never share
/// mutable state; the protocol, indexes and samplers are used
/// concurrently under their const contracts.
class ShardEngine {
 public:
  ShardEngine(const ClientProtocol& proto,
              const std::vector<SpanContext>& spans, bool versioned,
              const FleetOptions& options, double horizon,
              int64_t shard_first, int64_t shard_clients, FleetShard* sums,
              TelemetryShard* tel)
      : proto_(proto),
        spans_(spans),
        opt_(options),
        horizon_(horizon),
        shard_first_(shard_first),
        shard_clients_(shard_clients),
        sums_(sums),
        tel_(tel),
        cycle_(proto.channel(0).cycle_packets()),
        versioned_(versioned),
        mean_think_(static_cast<double>(cycle_) /
                    options.queries_per_cycle) {
    h_latency_ = sums_->metrics.histogram(kLatencyHist);
    h_tuning_index_ = sums_->metrics.histogram(kTuningIndexHist);
    h_tuning_total_ = sums_->metrics.histogram(kTuningTotalHist);
    h_retries_ = sums_->metrics.histogram(kRetriesHist);
    h_lost_ = sums_->metrics.histogram(kLostPacketsHist);
    h_corrupted_ = sums_->metrics.histogram(kCorruptedPacketsHist);
    if (versioned_) {
      h_epoch_switches_ = sums_->metrics.histogram(kEpochSwitchesHist);
    }
  }

  void Run() {
    clients_.resize(static_cast<size_t>(shard_clients_));
    for (int32_t i = 0; i < shard_clients_; ++i) {
      Client& c = clients_[static_cast<size_t>(i)];
      c.key = FleetClientKey(opt_.seed, ClientId(i, /*generation=*/0));
      // Generation 0 joins at a uniform point of the first cycle — the
      // steady-state phase distribution of a population that has been
      // listening forever.
      Rng rng = Rng::ForStream(c.key, FleetJoinStream());
      const double t_join =
          rng.Uniform(0.0, static_cast<double>(cycle_));
      if (t_join >= horizon_) {
        c.phase = SlotPhase::kRetired;
        continue;
      }
      queue_.push({t_join, i});
    }
    while (!queue_.empty() && sums_->error.ok()) {
      const WakeUp w = queue_.top();
      queue_.pop();
      Client& c = clients_[static_cast<size_t>(w.slot)];
      switch (c.phase) {
        case SlotPhase::kJoin:
          ++sums_->sessions;
          if (tel_ != nullptr) tel_->SessionJoin(w.t);
          IssueQuery(w.slot, c, w.t);
          break;
        case SlotPhase::kComplete:
          CompleteQuery(w.slot, c, c.done);
          break;
        case SlotPhase::kRetired:
          DTREE_CHECK(false);  // retired clients are never scheduled
          break;
      }
    }
  }

 private:
  uint64_t ClientId(int32_t slot, uint32_t generation) const {
    return static_cast<uint64_t>(shard_first_ + slot) +
           static_cast<uint64_t>(generation) *
               static_cast<uint64_t>(opt_.num_clients);
  }

  /// The client id of the session occupying `slot`, as traces and
  /// telemetry report it.
  int64_t SessionId(int32_t slot, const Client& c) const {
    return static_cast<int64_t>(ClientId(slot, c.generation));
  }

  /// The span a cache entry of `epoch` was read from: the latest span up
  /// to `span` (the one on the air) broadcasting that epoch. Entries only
  /// ever come from such a span, since the air time only moves forward.
  int CachedSpan(int span, uint16_t epoch) const {
    while (proto_.epoch(span) != epoch) {
      DTREE_CHECK(span > 0);
      --span;
    }
    return span;
  }

  std::unique_ptr<QueryTrace> NewTrace(int32_t slot, const Client& c) const {
    auto qt = std::make_unique<QueryTrace>();
    qt->query_index = c.query_index;
    qt->client_id = SessionId(slot, c);
    qt->x = c.px;
    qt->y = c.py;
    qt->region = c.trace.region;
    qt->arrival = c.st.arrival;
    return qt;
  }

  /// Issues the next query of client c arriving at absolute time A, or
  /// retires the client when A falls past the horizon. Draws the query
  /// point, answers it from the region cache or probes the index of the
  /// span broadcasting the first probe packet, and starts the protocol.
  void IssueQuery(int32_t slot, Client& c, double arrival) {
    if (arrival >= horizon_) {
      c.phase = SlotPhase::kRetired;
      return;
    }
    const uint64_t q = c.query_index;
    proto_.Start(&c.st, arrival, FleetQueryLossStream(c.key, q));
    const SpanContext& sc = spans_[static_cast<size_t>(c.st.span)];
    geom::Point p;
    if (opt_.mobility.enabled) {
      // The walk owns its stream family; the point stream stays untouched
      // so mobility-off sessions draw exactly what they always did.
      Rng rng = Rng::ForStream(c.key, FleetMobilityStream(q));
      p = workload::MobilityStep(opt_.mobility, sc.area, &c.walk, &rng);
    } else {
      Rng rng = Rng::ForStream(c.key, FleetPointStream(q));
      p = sc.sampler->Draw(&rng);
    }
    c.px = p.x;
    c.py = p.y;

    if (opt_.cache.enabled) {
      if (c.cache == nullptr) {
        c.cache = std::make_unique<RegionCache>(opt_.cache);
      }
      const RegionCache::Entry* hit = c.cache->Lookup(p);
      if (tel_ != nullptr) tel_->CacheLookup(arrival, hit != nullptr);
      if (hit != nullptr) {
        ++sums_->cache_hits;
        if (opt_.cache.verify_hits) {
          // Differential guard: the hit's answer must equal what a cold
          // probe would return under the epoch the entry carries — the
          // cache's own trust rule: an entry stays valid until the client
          // observes a newer stamp, even if that epoch has left the air.
          // (Latency / tuning legitimately differ — zeroing them is the
          // point.)
          const Status probe_st =
              spans_[static_cast<size_t>(CachedSpan(c.st.span, hit->epoch))]
                  .index->ProbeInto(p, &probe_scratch_);
          if (!probe_st.ok()) {
            sums_->error = probe_st;
            return;
          }
          if (probe_scratch_.region != hit->region) {
            sums_->error = Status::Internal(
                "fleet region cache hit diverges from cold probe: cached "
                "region " + std::to_string(hit->region) + " vs probed " +
                std::to_string(probe_scratch_.region));
            return;
          }
        }
        c.st.out.cache_hit = true;
        c.st.out.epoch = hit->epoch;
        c.trace.region = hit->region;
        if (tel_ != nullptr) tel_->QueryIssued(arrival);
        if (opt_.trace_sink != nullptr) {
          c.qt = NewTrace(slot, c);
          c.qt->cache_hit = true;
          c.qt->events.push_back(
              {.kind = TraceEventKind::kCacheHit,
               .pos = static_cast<int64_t>(std::floor(arrival)) + 1,
               .packet = static_cast<int>(hit->epoch)});
          c.trace.origins.clear();
        }
        c.done = arrival;
        c.phase = SlotPhase::kComplete;
        queue_.push({arrival, slot});
        return;
      }
      ++sums_->cache_misses;
    }

    if (tel_ != nullptr) tel_->QueryIssued(arrival);
    if (opt_.trace_sink != nullptr) c.qt = NewTrace(slot, c);
    if (!Reprobe(c)) return;
    Advance(slot, c, /*now=*/0);
  }

  /// Runs the in-flight query's point through the index of the span the
  /// client trusts (pointers from another epoch are worthless). Pure — no
  /// RNG draws. Returns false on a probe / validation failure (the shard
  /// error is set and its event loop stops).
  bool Reprobe(Client& c) {
    const SpanContext& sc = spans_[static_cast<size_t>(c.st.span)];
    const BroadcastChannel& ch = proto_.channel(c.st.span);
    Status st = sc.index->ProbeInto({c.px, c.py}, &probe_scratch_);
    if (st.ok()) {
      st = ValidateTrace(probe_scratch_, std::max(ch.index_packets(), 1),
                         ch.num_regions(), /*require_forward=*/false);
    }
    if (!st.ok()) {
      sums_->error = st;
      return false;
    }
    c.trace.region = probe_scratch_.region;
    c.trace.packets.assign(probe_scratch_.packets.begin(),
                           probe_scratch_.packets.end());
    if (c.qt != nullptr) {
      c.qt->region = c.trace.region;
      c.trace.origins = probe_scratch_.origins;
    } else {
      c.trace.origins.clear();
    }
    return true;
  }

  /// Steps the in-flight query from a wake-up at packet `now`.
  ///
  /// Only events another client can observe need the shard's event order,
  /// and that is just the completion: its accounting (shard sums,
  /// histograms, the trace stream, the flight record) is the only thing
  /// that depends on how clients interleave. A read touches the client's
  /// own state plus, with telemetry attached, integer window counters,
  /// heatmap bins and doze samples, none of which depends on the order of
  /// different clients' reads (DESIGN.md §13). So the query's reads are
  /// played here, and one queue entry completes it at (t of the last read
  /// it dozed to, slot) — exactly when a per-read schedule would have run
  /// the completion, so every sum and trace keeps its order. A query that
  /// ends without dozing again completes inline.
  void Advance(int32_t slot, Client& c, int64_t now) {
    const ProtocolEmitter em{.trace = c.qt.get(), .telemetry = tel_};
    bool dozed = false;
    for (;;) {
      const Wake w = proto_.Step(c.st, c.trace, now, em);
      if (w.switch_at >= 0) FlushCache(c, w.switch_at);
      switch (w.kind) {
        case Wake::kRead:
          dozed = true;
          now = w.t;
          break;
        case Wake::kDone:
          if (!dozed) {
            CompleteQuery(slot, c, static_cast<double>(w.t));
            return;
          }
          c.done = static_cast<double>(w.t);
          c.phase = SlotPhase::kComplete;
          queue_.push({static_cast<double>(now), slot});
          return;
        case Wake::kRetrace:
          if (!Reprobe(c)) return;
          break;
      }
    }
  }

  /// Rebuilds the in-flight query's event walk into replay_ for its flight
  /// record: the protocol is deterministic in (arrival, loss stream, query
  /// point), so stepping a fresh state with a trace-only emitter plays the
  /// same walk again. It touches no client, cache, shard sum or RNG stream.
  void Replay(const Client& c) {
    replay_.events.clear();
    ClientState st;
    proto_.Start(&st, c.st.arrival,
                 FleetQueryLossStream(c.key, c.query_index));
    const ProtocolEmitter em{.trace = &replay_};
    for (int64_t now = 0, span = -1;;) {
      if (span != st.span) {  // a kRetrace, or the start: probe as live
        span = st.span;
        DTREE_CHECK(spans_[static_cast<size_t>(span)]
                        .index->ProbeInto({c.px, c.py}, &probe_scratch_)
                        .ok());
      }
      const Wake w = proto_.Step(st, probe_scratch_, now, em);
      if (w.kind == Wake::kDone) break;
      if (w.kind == Wake::kRead) now = w.t;
    }
    DTREE_DCHECK(st.out.tuning_total() == c.st.out.tuning_total());
  }

  /// A delivered frame at `at` is a trusted stamp of a new epoch: version
  /// skew flushes the cache mid-query (loss / corruption never get here —
  /// a failed read carries no epoch evidence).
  void FlushCache(Client& c, int64_t at) {
    if (c.cache == nullptr) return;
    const int inv = c.cache->OnEpochObserved(c.st.out.epoch);
    sums_->cache_invalidations += inv;
    if (tel_ != nullptr) {
      tel_->CacheInvalidated(static_cast<double>(at), inv);
    }
  }

  /// The query is over (answered or explicitly given up) at absolute time
  /// `done`: account it, then advance the client's arrival process —
  /// possibly through churn, which retires this session and seats the
  /// next generation in the slot after a re-join delay.
  void CompleteQuery(int32_t slot, Client& c, double done) {
    const QueryOutcome& out = c.st.out;
    if (c.qt != nullptr) {
      MirrorOutcome(out, versioned_, c.qt.get());
      sums_->traces.push_back(std::move(*c.qt));
      c.qt.reset();
    }
    sums_->latency += out.latency;
    sums_->tuning_index += out.tuning_index;
    sums_->tuning_total += out.tuning_total();
    sums_->retries += out.retries;
    sums_->lost_packets += out.lost_packets;
    sums_->corrupted_packets += out.corrupted_packets;
    if (out.unrecoverable) ++sums_->unrecoverable;
    if (out.fallback_scan) ++sums_->fallback;
    ++sums_->queries;
    h_latency_->Add(out.latency);
    h_tuning_index_->Add(out.tuning_index);
    h_tuning_total_->Add(out.tuning_total());
    h_retries_->Add(out.retries);
    h_lost_->Add(out.lost_packets);
    h_corrupted_->Add(out.corrupted_packets);
    if (versioned_) {
      sums_->epoch_switches += out.epoch_switches;
      if (out.unrecoverable && out.give_up == GiveUpStage::kEpochChurn) {
        ++sums_->epoch_churn;
      }
      h_epoch_switches_->Add(out.epoch_switches);
    }
    if (tel_ != nullptr) {
      QueryOutcomeSummary summary;
      summary.latency = out.latency;
      summary.tuning_total = out.tuning_total();
      summary.retries = out.retries;
      summary.lost_packets = out.lost_packets;
      summary.corrupted_packets = out.corrupted_packets;
      summary.fallback_scan = out.fallback_scan;
      summary.unrecoverable = out.unrecoverable;
      summary.versioned = versioned_;
      summary.epoch = out.epoch;
      summary.epoch_switches = out.epoch_switches;
      if (out.unrecoverable) {
        summary.give_up = GiveUpStageName(out.give_up);
        Replay(c);
      }
      tel_->QueryDone(done, SessionId(slot, c), c.query_index, summary,
                      replay_.events);
    }

    if (c.cache != nullptr && !out.cache_hit && !out.unrecoverable &&
        c.trace.region >= 0) {
      // A completed answer carries a trusted epoch stamp: flush on skew
      // first, then cache the answer's valid scope under that epoch.
      const int inv = c.cache->OnEpochObserved(out.epoch);
      sums_->cache_invalidations += inv;
      const SpanContext& sc = spans_[static_cast<size_t>(c.st.span)];
      const int ev = c.cache->Insert(
          sc.region_polys[static_cast<size_t>(c.trace.region)],
          c.trace.region, out.epoch);
      sums_->cache_evictions += ev;
      if (tel_ != nullptr) {
        tel_->CacheInvalidated(done, inv);
        tel_->CacheEvicted(done, ev);
      }
    }

    Rng rng = Rng::ForStream(c.key, FleetScheduleStream(c.query_index));
    ++c.query_index;
    const double u_churn = rng.Uniform(0.0, 1.0);
    if (u_churn < opt_.churn) {
      ++sums_->departures;
      if (tel_ != nullptr) tel_->Departure(done);
      const double delay = DrawExp(&rng);
      c.generation += 1;
      c.query_index = 0;
      c.key = FleetClientKey(opt_.seed, ClientId(slot, c.generation));
      // The departing client takes its cache and walk with it: the next
      // occupant starts cold (Clear is not an invalidation — nothing the
      // new client trusted was dropped).
      if (c.cache != nullptr) c.cache->Clear();
      c.walk = workload::MobilityState{};
      const double t_join = done + delay;
      if (t_join >= horizon_) {
        c.phase = SlotPhase::kRetired;
        return;
      }
      c.phase = SlotPhase::kJoin;
      queue_.push({t_join, slot});
      return;
    }
    // Poisson thinking time from the *previous arrival* (an open-loop
    // arrival process), clamped so the next query never starts before
    // this one finished.
    const double think = DrawExp(&rng);
    IssueQuery(slot, c, std::max(c.st.arrival + think, done));
  }

  /// Exponential with mean mean_think_; u < 1 so the draw is finite.
  double DrawExp(Rng* rng) {
    return -mean_think_ * std::log1p(-rng->Uniform(0.0, 1.0));
  }

  const ClientProtocol& proto_;
  const std::vector<SpanContext>& spans_;
  const FleetOptions& opt_;
  const double horizon_;
  const int64_t shard_first_;
  const int64_t shard_clients_;
  FleetShard* sums_;
  TelemetryShard* const tel_;  ///< null unless FleetOptions::telemetry
  const int64_t cycle_;  ///< span 0's cycle (join / think-time base)
  const bool versioned_;
  const double mean_think_;
  std::vector<Client> clients_;
  std::priority_queue<WakeUp, std::vector<WakeUp>, WakeUpLater> queue_;
  ProbeTrace probe_scratch_;
  QueryTrace replay_;  ///< the last failed query's walk (Replay)
  Histogram* h_latency_ = nullptr;
  Histogram* h_tuning_index_ = nullptr;
  Histogram* h_tuning_total_ = nullptr;
  Histogram* h_retries_ = nullptr;
  Histogram* h_lost_ = nullptr;
  Histogram* h_corrupted_ = nullptr;
  Histogram* h_epoch_switches_ = nullptr;  ///< non-null iff versioned_
};

/// Option checks shared by RunFleet and RunFleetVersioned.
Status ValidateFleetOptions(const FleetOptions& options) {
  if (options.num_clients < 1) {
    return Status::InvalidArgument("fleet needs at least one client");
  }
  if (!(options.sim_cycles > 0.0) || !std::isfinite(options.sim_cycles)) {
    return Status::InvalidArgument("sim_cycles must be positive and finite");
  }
  if (!(options.queries_per_cycle > 0.0) ||
      !std::isfinite(options.queries_per_cycle)) {
    return Status::InvalidArgument(
        "queries_per_cycle must be positive and finite");
  }
  if (!(options.churn >= 0.0 && options.churn <= 1.0)) {
    return Status::InvalidArgument("churn must be in [0, 1]");
  }
  DTREE_RETURN_IF_ERROR(workload::ValidateMobilityOptions(options.mobility));
  DTREE_RETURN_IF_ERROR(ValidateCacheOptions(options.cache));
  return Status::OK();
}

/// The shared engine driver: builds each epoch's channel, sampler and
/// span context (the channels share one wire format, so every epoch's is
/// built from the same ChannelOptions), runs the shard event loops over
/// the epochs' span table, merges in shard order and assembles the
/// result. RunFleet is one epoch; horizon and the channel-shape result
/// fields are measured against epoch 0. `versioned` selects the
/// versioned outputs (epoch accounting, trace and telemetry epoch fields).
Result<FleetResult> RunFleetImpl(const std::vector<FleetEpoch>& epochs,
                                 bool versioned,
                                 const FleetOptions& options) {
  ChannelOptions copt;
  copt.packet_capacity = options.packet_capacity;
  copt.data_instance_size = options.data_instance_size;
  copt.m = options.m;
  copt.loss = options.loss;
  std::vector<BroadcastChannel> channels;
  std::vector<QuerySampler> samplers;
  channels.reserve(epochs.size());
  samplers.reserve(epochs.size());
  for (const FleetEpoch& e : epochs) {
    Result<BroadcastChannel> ch_r = BroadcastChannel::Create(
        e.index->NumIndexPackets(), e.subdivision->NumRegions(), copt);
    if (!ch_r.ok()) return ch_r.status();
    channels.push_back(std::move(ch_r.value()));
    Result<QuerySampler> sampler_r = QuerySampler::Create(
        *e.subdivision, options.distribution, options.region_weights);
    if (!sampler_r.ok()) return sampler_r.status();
    samplers.push_back(std::move(sampler_r.value()));
  }
  std::vector<EpochSpan> table;
  std::vector<SpanContext> spans(epochs.size());
  for (size_t i = 0; i < epochs.size(); ++i) {
    table.push_back({&channels[i], epochs[i].epoch, epochs[i].cycles});
    const sub::Subdivision& subdivision = *epochs[i].subdivision;
    spans[i].index = epochs[i].index;
    spans[i].sampler = &samplers[i];
    spans[i].area = subdivision.service_area();
    if (options.cache.enabled) {
      for (int r = 0; r < subdivision.NumRegions(); ++r) {
        spans[i].region_polys.push_back(subdivision.RegionPolygon(r));
      }
    }
  }
  Result<BroadcastTimeline> timeline_r =
      BroadcastTimeline::Create(std::move(table));
  if (!timeline_r.ok()) return timeline_r.status();
  const ClientProtocol proto(timeline_r.value());

  const BroadcastChannel& ch0 = channels[0];
  const double horizon =
      options.sim_cycles * static_cast<double>(ch0.cycle_packets());

  // Shard layout: fixed count, contiguous slot ranges, shard s always
  // owning the same slots regardless of threads.
  const int num_shards = static_cast<int>(
      std::min<int64_t>(kFleetShards, options.num_clients));
  const int64_t per_shard = options.num_clients / num_shards;
  const int64_t remainder = options.num_clients % num_shards;

  if (options.telemetry != nullptr) {
    options.telemetry->Reset(ch0.cycle_packets(), num_shards);
    options.telemetry->set_cache_enabled(options.cache.enabled);
  }

  std::vector<FleetShard> shards(static_cast<size_t>(num_shards));
  auto run_shard = [&](int s) {
    const int64_t shard_clients = per_shard + (s < remainder ? 1 : 0);
    const int64_t shard_first =
        s * per_shard + std::min<int64_t>(s, remainder);
    ShardEngine engine(proto, spans, versioned, options, horizon,
                       shard_first, shard_clients,
                       &shards[static_cast<size_t>(s)],
                       options.telemetry != nullptr
                           ? options.telemetry->shard(s)
                           : nullptr);
    engine.Run();
  };
  ThreadPool pool(options.num_threads);
  pool.ParallelFor(num_shards, run_shard);

  // Merge in shard order; first failing shard (by id) wins.
  FleetShard total;
  MetricsRegistry merged;
  for (const FleetShard& sums : shards) {
    if (!sums.error.ok()) return sums.error;
    total.latency += sums.latency;
    total.tuning_index += sums.tuning_index;
    total.tuning_total += sums.tuning_total;
    total.retries += sums.retries;
    total.lost_packets += sums.lost_packets;
    total.corrupted_packets += sums.corrupted_packets;
    total.unrecoverable += sums.unrecoverable;
    total.fallback += sums.fallback;
    total.epoch_switches += sums.epoch_switches;
    total.epoch_churn += sums.epoch_churn;
    total.queries += sums.queries;
    total.sessions += sums.sessions;
    total.departures += sums.departures;
    total.cache_hits += sums.cache_hits;
    total.cache_misses += sums.cache_misses;
    total.cache_evictions += sums.cache_evictions;
    total.cache_invalidations += sums.cache_invalidations;
    merged.MergeOrdered(sums.metrics);
  }
  if (options.trace_sink != nullptr) {
    for (const FleetShard& sums : shards) {
      for (const QueryTrace& qt : sums.traces) {
        options.trace_sink->Consume(qt);
      }
    }
  }
  if (options.telemetry != nullptr) options.telemetry->MergeShards();

  FleetResult res;
  res.index_name = epochs[0].index->name();
  res.packet_capacity = options.packet_capacity;
  res.m = ch0.m();
  res.index_packets = ch0.index_packets();
  res.data_packets = ch0.data_packets();
  res.cycle_packets = ch0.cycle_packets();
  res.horizon_packets = static_cast<int64_t>(std::llround(horizon));
  res.num_clients = options.num_clients;
  res.sessions = total.sessions;
  res.departures = total.departures;
  res.queries = total.queries;
  const double n = static_cast<double>(total.queries);
  const auto mean = [&](double sum) { return n > 0.0 ? sum / n : 0.0; };
  res.mean_latency = mean(total.latency);
  res.mean_tuning_index = mean(total.tuning_index);
  res.mean_tuning_total = mean(total.tuning_total);
  res.mean_retries = mean(static_cast<double>(total.retries));
  res.mean_lost_packets = mean(static_cast<double>(total.lost_packets));
  res.mean_corrupted_packets =
      mean(static_cast<double>(total.corrupted_packets));
  res.total_retries = total.retries;
  res.total_lost_packets = total.lost_packets;
  res.total_corrupted_packets = total.corrupted_packets;
  res.unrecoverable_queries = total.unrecoverable;
  res.fallback_queries = total.fallback;
  res.total_epoch_switches = total.epoch_switches;
  res.epoch_churn_queries = total.epoch_churn;
  res.mean_epoch_switches = mean(static_cast<double>(total.epoch_switches));
  res.cache_enabled = options.cache.enabled;
  res.cache_hits = total.cache_hits;
  res.cache_misses = total.cache_misses;
  res.cache_evictions = total.cache_evictions;
  res.cache_invalidations = total.cache_invalidations;
  res.min_latency = merged.histogram(kLatencyHist)->Min();
  res.max_latency = merged.histogram(kLatencyHist)->Max();
  res.min_tuning_total = merged.histogram(kTuningTotalHist)->Min();
  res.max_tuning_total = merged.histogram(kTuningTotalHist)->Max();
  res.metrics = std::move(merged);
  return res;
}

}  // namespace

Result<FleetResult> RunFleet(const AirIndex& index,
                             const sub::Subdivision& subdivision,
                             const FleetOptions& options) {
  DTREE_RETURN_IF_ERROR(ValidateFleetOptions(options));
  return RunFleetImpl({{&index, &subdivision, /*epoch=*/0, /*cycles=*/1}},
                      /*versioned=*/false, options);
}

Result<FleetResult> RunFleetVersioned(const std::vector<FleetEpoch>& epochs,
                                      const FleetOptions& options) {
  DTREE_RETURN_IF_ERROR(ValidateFleetOptions(options));
  if (epochs.empty()) {
    return Status::InvalidArgument(
        "versioned fleet needs at least one epoch");
  }
  for (size_t i = 0; i < epochs.size(); ++i) {
    if (epochs[i].index == nullptr || epochs[i].subdivision == nullptr) {
      return Status::InvalidArgument("epoch without an index/subdivision");
    }
    if (i + 1 < epochs.size() && epochs[i].cycles < 1) {
      return Status::InvalidArgument(
          "every epoch but the last needs cycles >= 1");
    }
  }
  return RunFleetImpl(epochs, /*versioned=*/true, options);
}

}  // namespace dtree::bcast
