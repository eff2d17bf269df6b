#include "broadcast/fleet.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "broadcast/frame.h"
#include "broadcast/telemetry.h"
#include "common/check.h"
#include "common/thread_pool.h"

namespace dtree::bcast {

namespace {

/// Protocol phase a dozing client wakes up into. Probe bursts, bucket
/// retrievals and the fallback scan are contiguous listening, so each is
/// processed inside a single wake-up; the index descent dozes between
/// packets (the paper's core energy mechanism), so each index read is its
/// own wake-up.
enum class Phase : uint8_t {
  kJoin,        ///< session start; issue the first query
  kProbe,       ///< initial probe burst at floor(arrival) + 1
  kIndexRead,   ///< read packets[step] of the current descent
  kBucketRead,  ///< contiguous bucket retrieval
  /// Query answered from the client's region cache at issue time; the
  /// wake-up completes it at its arrival (zero latency, zero tuning).
  /// Completion goes through the queue, not recursion, so an unbroken
  /// run of hits cannot grow the stack.
  kCacheHit,
  kDone,        ///< retired (horizon reached); never scheduled again
};

/// One client slot. The per-query protocol state mirrors the locals of
/// BroadcastChannel::Simulate; everything else is the client's identity
/// and arrival process. Kept small on purpose: a million clients is a few
/// hundred MB. The fault processes are NOT resident: their state is a
/// pure function of the (seed, client, purpose) stream keys, so every draw
/// sequence is rebuilt from its key exactly when needed (see FirstFailure
/// below), which keeps Client small.
struct Client {
  uint64_t key = 0;          ///< FleetClientKey(seed, client_id)
  uint64_t id = 0;           ///< slot + generation * num_clients
  uint64_t loss_stream = 0;  ///< FleetQueryLossStream of in-flight query
  double arrival = 0.0;      ///< absolute arrival of in-flight query
  double px = 0.0;           ///< in-flight query point (for re-probes
  double py = 0.0;           ///< after an epoch switch)
  int64_t pos = 0;           ///< Simulate's `pos` (re-tune restart point)
  int64_t seg_start = 0;     ///< current index-segment start
  int64_t probe_packet = 0;  ///< next probe read position
  BroadcastChannel::QueryOutcome out;
  std::vector<int> packets;  ///< current descent's index packet ids
  /// Probe-path annotation, filled only when tracing (empty otherwise).
  std::vector<ProbePacketOrigin> origins;
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
  int32_t region = -1;
  /// Read ordinal (0-based, within the current attempt's fixed draw
  /// sequence) of the first failed read; -1 = attempt fully succeeds.
  int32_t fail_at = -1;
  int32_t reads_done = 0;    ///< successful reads so far this attempt
  int32_t step = 0;          ///< next index of `packets` to read
  /// Restart ordinal keying LossProcess::AttemptStream: incremented for
  /// fault re-tunes AND epoch switches (one stream per restart, exactly
  /// as BroadcastTimeline::Simulate keys them). Equal to out.retries in
  /// a single-epoch run.
  int32_t attempt = 0;
  int32_t span = 0;          ///< epoch span the client currently trusts
  bool fail_corrupt = false; ///< failing read is a CRC reject, not a loss
  Phase phase = Phase::kJoin;
};

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

/// Everything the engine needs about one epoch span, precomputed once
/// and shared read-only across shards. Span s occupies absolute packets
/// [start, next span's start); the last span is open-ended. A legacy
/// RunFleet is exactly one span starting at 0.
struct SpanContext {
  const AirIndex* index = nullptr;
  const QuerySampler* sampler = nullptr;
  const BroadcastChannel* channel = nullptr;
  uint16_t epoch = 0;
  int64_t start = 0;  ///< absolute packet position the span begins at
  int64_t cycle = 0;  ///< this epoch's cycle_packets
  std::vector<int64_t> segment_start;  ///< in-cycle index segment starts
  std::vector<int64_t> bucket_start;   ///< in-cycle bucket starts, by region
  geom::BBox area;  ///< service area (mobility walk bounds)
  /// Region cell polygons, materialized once and shared read-only: the
  /// valid scope a client caches after answering a query in this epoch.
  /// Empty unless FleetOptions::cache is enabled.
  std::vector<geom::Polygon> region_polys;
};

SpanContext MakeSpanContext(const AirIndex& index, const BroadcastChannel& ch,
                            const QuerySampler& sampler,
                            const sub::Subdivision& subdivision,
                            uint16_t epoch, int64_t start,
                            bool cache_enabled) {
  SpanContext sc;
  sc.index = &index;
  sc.sampler = &sampler;
  sc.channel = &ch;
  sc.epoch = epoch;
  sc.start = start;
  sc.cycle = ch.cycle_packets();
  sc.segment_start.reserve(static_cast<size_t>(ch.m()));
  for (int j = 0; j < ch.m(); ++j) {
    sc.segment_start.push_back(ch.IndexSegmentStart(j));
  }
  sc.bucket_start.reserve(static_cast<size_t>(ch.num_regions()));
  for (int r = 0; r < ch.num_regions(); ++r) {
    sc.bucket_start.push_back(ch.BucketStart(r));
  }
  sc.area = subdivision.service_area();
  if (cache_enabled) {
    sc.region_polys.reserve(static_cast<size_t>(subdivision.NumRegions()));
    for (int r = 0; r < subdivision.NumRegions(); ++r) {
      sc.region_polys.push_back(subdivision.RegionPolygon(r));
    }
  }
  return sc;
}

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

/// Read ordinal of the first failed read in one attempt's fixed draw
/// sequence, or -1 when all `num_reads` reads succeed. Reconstructs the
/// fault processes from their stream keys and replays Simulate's exact
/// draw order (loss first; corruption only for delivered packets; no
/// draws after the first failure — which is also why the attempt's
/// remaining draws never being made keeps this equivalent to drawing
/// lazily at each read). Valid because LossProcess::StartStream fully
/// re-keys the process: its state is a pure function of (options, query
/// stream, sub-stream), never of what an earlier phase drew — so the
/// processes are built directly on the sub-stream.
int FirstFailure(const LossOptions& lopt, int frame_bits,
                 uint64_t query_stream, uint64_t sub_stream, int num_reads,
                 bool* fail_corrupt) {
  LossProcess loss(lopt, query_stream, sub_stream);
  CorruptionProcess corrupt(lopt.corruption, frame_bits, query_stream,
                            sub_stream);
  for (int i = 0; i < num_reads; ++i) {
    if (loss.enabled() && loss.NextLost()) {
      *fail_corrupt = false;
      return i;
    }
    if (corrupt.enabled() && corrupt.NextCorrupted()) {
      *fail_corrupt = true;
      return i;
    }
  }
  return -1;
}

/// Everything one shard needs to run its event loop. Shards never share
/// mutable state; the channels, indexes and samplers are probed
/// concurrently under AirIndex's const-probe contract.
class ShardEngine {
 public:
  ShardEngine(const std::vector<SpanContext>& spans, bool versioned,
              const FleetOptions& options, double horizon,
              int64_t shard_first, int64_t shard_clients, FleetShard* sums,
              TelemetryShard* tel)
      : spans_(spans),
        opt_(options),
        lopt_(options.loss),
        horizon_(horizon),
        shard_first_(shard_first),
        shard_clients_(shard_clients),
        sums_(sums),
        tel_(tel),
        cycle_(spans[0].cycle),
        frame_bits_(FrameBits(options.packet_capacity)),
        faults_(options.loss.any_fault()),
        versioned_(versioned),
        mobility_on_(options.mobility.enabled),
        cache_on_(options.cache.enabled),
        mean_think_(static_cast<double>(spans[0].cycle) /
                    options.queries_per_cycle),
        tracing_(options.trace_sink != nullptr) {
    starts_.reserve(spans.size());
    for (const SpanContext& sc : spans) starts_.push_back(sc.start);
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
        c.phase = Phase::kDone;
        continue;
      }
      c.phase = Phase::kJoin;
      queue_.push({t_join, i});
    }
    while (!queue_.empty() && sums_->error.ok()) {
      const WakeUp w = queue_.top();
      queue_.pop();
      Client& c = clients_[static_cast<size_t>(w.slot)];
      switch (c.phase) {
        case Phase::kJoin:
          ++sums_->sessions;
          if (tel_ != nullptr) tel_->SessionJoin(w.t);
          IssueQuery(w.slot, c, w.t);
          break;
        case Phase::kProbe:
          HandleProbe(w.slot, c);
          break;
        case Phase::kIndexRead:
          HandleIndexRead(w.slot, c, static_cast<int64_t>(w.t));
          break;
        case Phase::kBucketRead:
          HandleBucketRead(w.slot, c, static_cast<int64_t>(w.t));
          break;
        case Phase::kCacheHit:
          // Outcome was synthesized at issue time; complete at arrival.
          CompleteQuery(w.slot, c, c.arrival);
          break;
        case Phase::kDone:
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

  const SpanContext& Span(const Client& c) const {
    return spans_[static_cast<size_t>(c.span)];
  }

  /// Epoch span containing absolute packet position pos.
  int SpanAt(int64_t pos) const {
    const auto it = std::upper_bound(starts_.begin(), starts_.end(), pos);
    return static_cast<int>(it - starts_.begin()) - 1;
  }

  /// One past the last packet of span s (INT64_MAX for the last span).
  int64_t SpanEnd(int s) const {
    return static_cast<size_t>(s) + 1 < starts_.size()
               ? starts_[static_cast<size_t>(s) + 1]
               : std::numeric_limits<int64_t>::max();
  }

  /// Smallest index-segment start >= t within the client's span layout;
  /// BroadcastTimeline::Simulate's next_segment_start (and, with one span
  /// starting at 0, BroadcastChannel::Simulate's, verbatim). Positions
  /// beyond the span extrapolate its layout; the frames actually
  /// broadcast there belong to the next epoch and the reads will say so.
  int64_t NextSegmentStart(const Client& c, int64_t t) const {
    const SpanContext& sc = Span(c);
    const int64_t local = t - sc.start;
    DTREE_CHECK(local >= 0);
    const int64_t base = (local / sc.cycle) * sc.cycle;
    const int64_t in_cycle = local - base;
    for (size_t j = 0; j < sc.segment_start.size(); ++j) {
      if (sc.segment_start[j] >= in_cycle) {
        return sc.start + base + sc.segment_start[j];
      }
    }
    return sc.start + base + sc.cycle + sc.segment_start[0];
  }

  // --- Trace/telemetry emitters, mirroring Simulate's event order.
  // Each is a no-op per disabled layer: tracing and telemetry attach
  // independently and neither perturbs the protocol arithmetic.
  void EmitDoze(Client& c, int64_t resume_at, double dur) {
    if (c.qt != nullptr && dur > 0.0) {
      TraceEvent e;
      e.kind = TraceEventKind::kDoze;
      e.pos = resume_at;
      e.dur = dur;
      c.qt->events.push_back(e);
    }
    if (tel_ != nullptr && dur > 0.0) {
      tel_->Doze(static_cast<double>(resume_at), dur,
                 static_cast<int64_t>(c.id), c.query_index);
    }
  }
  /// kProbe reads plus kLoss / kCorruption fault marks.
  void EmitRead(Client& c, TraceEventKind kind, int64_t pos) {
    if (c.qt != nullptr) {
      TraceEvent e;
      e.kind = kind;
      e.pos = pos;
      c.qt->events.push_back(e);
    }
    if (tel_ != nullptr) {
      if (kind == TraceEventKind::kProbe) {
        tel_->Read(kind, pos, 1, /*data_read=*/false,
                   static_cast<int64_t>(c.id), c.query_index);
      } else {
        tel_->Fault(kind, pos, static_cast<int64_t>(c.id), c.query_index);
      }
    }
  }
  /// Bucket retrieval of `bucket_read` contiguous packets at data_at.
  void EmitBucket(Client& c, int64_t data_at, int bucket_read) {
    if (c.qt != nullptr) {
      TraceEvent e;
      e.kind = TraceEventKind::kBucketRead;
      e.pos = data_at;
      e.packet = bucket_read;
      c.qt->events.push_back(e);
    }
    if (tel_ != nullptr) {
      tel_->Read(TraceEventKind::kBucketRead, data_at, bucket_read,
                 /*data_read=*/true, static_cast<int64_t>(c.id),
                 c.query_index);
    }
  }

  /// Issues the next query of client c arriving at absolute time A, or
  /// retires the client when A falls past the horizon. Draws the query
  /// point, runs the index probe, and schedules the initial-probe wake-up
  /// at floor(A) + 1 (Simulate's packet-boundary rule).
  void IssueQuery(int32_t slot, Client& c, double arrival) {
    if (arrival >= horizon_) {
      c.phase = Phase::kDone;
      return;
    }
    const uint64_t q = c.query_index;
    // Issue-time span: the one broadcasting at the first probe position.
    // The probe itself may establish a different tune-in span (probe
    // retries can cross a boundary); HandleProbe re-probes then.
    c.span = versioned_
                 ? SpanAt(static_cast<int64_t>(std::floor(arrival)) + 1)
                 : 0;
    const SpanContext& sc = Span(c);
    geom::Point p;
    if (mobility_on_) {
      // The walk owns its stream family; the point stream stays untouched
      // so mobility-off sessions draw exactly what they always did.
      Rng rng = Rng::ForStream(c.key, FleetMobilityStream(q));
      p = workload::MobilityStep(opt_.mobility, sc.area, &c.walk, &rng);
    } else {
      Rng rng = Rng::ForStream(c.key, FleetPointStream(q));
      p = sc.sampler->Draw(&rng);
    }

    if (cache_on_) {
      if (c.cache == nullptr) {
        c.cache = std::make_unique<RegionCache>(opt_.cache);
      }
      const RegionCache::Entry* hit = c.cache->Lookup(p);
      if (tel_ != nullptr) tel_->CacheLookup(arrival, hit != nullptr);
      if (hit != nullptr) {
        ++sums_->cache_hits;
        if (opt_.cache.verify_hits) {
          // Differential guard: the hit's answer must equal what a cold
          // probe of the span on the air would return. (Latency / tuning
          // legitimately differ — zeroing them is the point.)
          const Status probe_st =
              sc.index->ProbeInto(p, &probe_scratch_);
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
        c.arrival = arrival;
        c.px = p.x;
        c.py = p.y;
        c.out = BroadcastChannel::QueryOutcome{};
        c.out.cache_hit = true;
        c.out.epoch = hit->epoch;
        c.region = hit->region;
        c.id = ClientId(slot, c.generation);
        if (tel_ != nullptr) tel_->QueryIssued(arrival);
        if (tracing_) {
          c.qt = std::make_unique<QueryTrace>();
          c.qt->query_index = q;
          c.qt->client_id = static_cast<int64_t>(c.id);
          c.qt->x = p.x;
          c.qt->y = p.y;
          c.qt->region = c.region;
          c.qt->arrival = arrival;
          c.qt->cache_hit = true;
          TraceEvent e;
          e.kind = TraceEventKind::kCacheHit;
          e.pos = static_cast<int64_t>(std::floor(arrival)) + 1;
          e.packet = static_cast<int>(hit->epoch);
          c.qt->events.push_back(e);
          c.origins.clear();
        }
        c.phase = Phase::kCacheHit;
        queue_.push({arrival, slot});
        return;
      }
      ++sums_->cache_misses;
    }

    const Status probe_st = sc.index->ProbeInto(p, &probe_scratch_);
    if (!probe_st.ok()) {
      sums_->error = probe_st;
      return;
    }
    const Status trace_st = ValidateTrace(
        probe_scratch_, std::max(sc.channel->index_packets(), 1),
        sc.channel->num_regions(), /*require_forward=*/false);
    if (!trace_st.ok()) {
      sums_->error = trace_st;
      return;
    }
    c.arrival = arrival;
    c.px = p.x;
    c.py = p.y;
    c.out = BroadcastChannel::QueryOutcome{};
    c.region = probe_scratch_.region;
    c.packets.assign(probe_scratch_.packets.begin(),
                     probe_scratch_.packets.end());
    c.loss_stream = FleetQueryLossStream(c.key, q);
    c.id = ClientId(slot, c.generation);
    if (tel_ != nullptr) tel_->QueryIssued(arrival);
    if (tracing_) {
      c.qt = std::make_unique<QueryTrace>();
      c.qt->query_index = q;
      c.qt->client_id = static_cast<int64_t>(c.id);
      c.qt->x = p.x;
      c.qt->y = p.y;
      c.qt->region = c.region;
      c.qt->arrival = arrival;
      c.origins = probe_scratch_.origins;
    }
    c.probe_packet = static_cast<int64_t>(std::floor(arrival)) + 1;
    EmitDoze(c, c.probe_packet,
             static_cast<double>(c.probe_packet) - arrival);
    c.phase = Phase::kProbe;
    queue_.push({static_cast<double>(c.probe_packet), slot});
  }

  /// Re-runs the in-flight query's point through the client's current
  /// span's index (pointers cached from another epoch are worthless).
  /// Pure — no RNG draws — so attaching it to span changes preserves the
  /// determinism contract. Returns false on a probe/validation failure
  /// (sums_->error set; the shard's event loop stops).
  bool ReprobeSpan(Client& c) {
    const SpanContext& sc = Span(c);
    const Status probe_st =
        sc.index->ProbeInto({c.px, c.py}, &probe_scratch_);
    if (!probe_st.ok()) {
      sums_->error = probe_st;
      return false;
    }
    const Status trace_st = ValidateTrace(
        probe_scratch_, std::max(sc.channel->index_packets(), 1),
        sc.channel->num_regions(), /*require_forward=*/false);
    if (!trace_st.ok()) {
      sums_->error = trace_st;
      return false;
    }
    c.region = probe_scratch_.region;
    c.packets.assign(probe_scratch_.packets.begin(),
                     probe_scratch_.packets.end());
    if (c.qt != nullptr) {
      c.qt->region = c.region;
      c.origins = probe_scratch_.origins;
    } else {
      c.origins.clear();
    }
    return true;
  }

  /// Adopts the span broadcasting at `pos` as the client's tune-in epoch
  /// — how the probe *learns* the current epoch, without consuming a
  /// switch. Re-probes when it differs from the issue-time span.
  bool AdoptSpan(Client& c, int64_t pos) {
    const int s = SpanAt(pos);
    c.out.epoch = spans_[static_cast<size_t>(s)].epoch;
    if (s == c.span) return true;
    c.span = s;
    return ReprobeSpan(c);
  }

  /// Registers the epoch switch a delivered read at `at` revealed (the
  /// packet belongs to span s != c.span): counts it, emits the trace /
  /// telemetry events, adopts the new span, and re-probes the query point
  /// under the new epoch's index. Returns false when the caller must stop
  /// driving the query — either the switch budget is exhausted (the query
  /// completed with GiveUpStage::kEpochChurn; latency runs through the
  /// revealing read) or the re-probe failed (shard error set).
  bool RegisterSwitch(int32_t slot, Client& c, int64_t at, int s) {
    ++c.out.epoch_switches;
    if (c.qt != nullptr) {
      TraceEvent e;
      e.kind = TraceEventKind::kEpochSwitch;
      e.pos = at;
      e.packet = static_cast<int>(spans_[static_cast<size_t>(s)].epoch);
      e.attempt = c.out.epoch_switches;
      c.qt->events.push_back(e);
    }
    if (tel_ != nullptr) {
      tel_->Fault(TraceEventKind::kEpochSwitch, at,
                  static_cast<int64_t>(c.id), c.query_index);
    }
    c.span = s;
    c.out.epoch = spans_[static_cast<size_t>(s)].epoch;
    if (cache_on_ && c.cache != nullptr) {
      // The delivered frame is a trusted stamp of the new epoch: version
      // skew flushes the cache mid-query (loss / corruption never get
      // here — a failed read carries no epoch evidence).
      const int inv = c.cache->OnEpochObserved(c.out.epoch);
      sums_->cache_invalidations += inv;
      if (tel_ != nullptr) {
        tel_->CacheInvalidated(static_cast<double>(at), inv);
      }
    }
    if (c.out.epoch_switches > lopt_.max_epoch_switches) {
      c.out.unrecoverable = true;
      c.out.give_up = GiveUpStage::kEpochChurn;
      c.out.latency = static_cast<double>(at + 1) - c.arrival;
      CompleteQuery(slot, c, static_cast<double>(at + 1));
      return false;
    }
    return ReprobeSpan(c);
  }

  /// Initial probe burst: consecutive packets are read back to back (the
  /// client is awake throughout), so the whole burst — and, on budget
  /// exhaustion, the fallback conclusion — runs inside this one wake-up.
  /// The fault processes live only for this frame, reconstructed from the
  /// query's stream key (kProbeStream is their construction state).
  void HandleProbe(int32_t slot, Client& c) {
    c.out.tuning_probe = 1;
    EmitRead(c, TraceEventKind::kProbe, c.probe_packet);
    if (faults_) {
      LossProcess loss(lopt_, c.loss_stream);
      CorruptionProcess corrupt(lopt_.corruption, frame_bits_,
                                c.loss_stream);
      auto read_failed = [&](int64_t at) {
        if (loss.enabled() && loss.NextLost()) {
          ++c.out.lost_packets;
          EmitRead(c, TraceEventKind::kLoss, at);
          return true;
        }
        if (corrupt.enabled() && corrupt.NextCorrupted()) {
          ++c.out.corrupted_packets;
          EmitRead(c, TraceEventKind::kCorruption, at);
          return true;
        }
        return false;
      };
      while (read_failed(c.probe_packet)) {
        if (c.out.tuning_probe > lopt_.max_retries) {
          // Never heard a single frame; the scan itself will reveal the
          // epoch, but the conclusion starts from the span on the air.
          if (versioned_ && !AdoptSpan(c, c.probe_packet + 1)) return;
          Conclude(slot, c, c.probe_packet + 1, GiveUpStage::kProbeBudget);
          return;
        }
        ++c.out.tuning_probe;
        ++c.probe_packet;
        EmitRead(c, TraceEventKind::kProbe, c.probe_packet);
      }
    }
    // The last successful probe read is the first delivered frame: its
    // span becomes the tune-in epoch (no switch consumed).
    if (versioned_ && !AdoptSpan(c, c.probe_packet)) return;
    c.pos = c.probe_packet + 1;
    c.attempt = 0;
    StartAttempt(slot, c, /*after_fault=*/false);
  }

  /// Begins restart `c.attempt` at position c.pos: precomputes where the
  /// restart's fixed read sequence first fails, locates the next index
  /// segment, and schedules the first wake-up of the descent (or goes
  /// straight to the bucket for an empty index). `after_fault` restarts
  /// are fault re-tunes and count toward out.retries; epoch-switch
  /// restarts re-key the draw streams without consuming retry budget.
  void StartAttempt(int32_t slot, Client& c, bool after_fault) {
    if (after_fault) {
      ++c.out.retries;
      if (c.qt != nullptr) {
        TraceEvent e;
        e.kind = TraceEventKind::kRetune;
        e.pos = c.pos;
        e.attempt = c.out.retries;
        c.qt->events.push_back(e);
      }
      if (tel_ != nullptr) {
        tel_->Fault(TraceEventKind::kRetune, c.pos,
                    static_cast<int64_t>(c.id), c.query_index);
      }
    }
    c.reads_done = 0;
    c.fail_at = -1;
    if (faults_) {
      c.fail_at = FirstFailure(
          lopt_, frame_bits_, c.loss_stream,
          LossProcess::AttemptStream(c.attempt),
          static_cast<int>(c.packets.size()) +
              Span(c).channel->bucket_packets(),
          &c.fail_corrupt);
    }
    int64_t p = c.pos;
    c.seg_start = NextSegmentStart(c, p);
    DTREE_CHECK(c.seg_start >= p);
    c.step = 0;
    if (c.packets.empty()) {
      p = std::max(p, c.seg_start);  // degenerate: empty index
      ScheduleBucket(slot, c, p);
      return;
    }
    ScheduleIndexRead(slot, c, p);
  }

  /// Schedules the wake-up for packets[c.step], handling a backward
  /// pointer by waiting for the next index repetition (Simulate's
  /// DAG-shaped-index rule, including the p - packet_id positivity
  /// argument audited there).
  void ScheduleIndexRead(int32_t slot, Client& c, int64_t p) {
    const int packet_id = c.packets[c.step];
    int64_t at = c.seg_start + packet_id;
    if (at < p) {
      c.seg_start = NextSegmentStart(c, p - packet_id);
      at = c.seg_start + packet_id;
      DTREE_CHECK(at >= p);
    }
    EmitDoze(c, at, static_cast<double>(at - p));
    c.phase = Phase::kIndexRead;
    queue_.push({static_cast<double>(at), slot});
  }

  void HandleIndexRead(int32_t slot, Client& c, int64_t at) {
    const int packet_id = c.packets[c.step];
    if (c.qt != nullptr) {
      TraceEvent e;
      e.kind = TraceEventKind::kIndexRead;
      e.pos = at;
      e.packet = packet_id;
      if (c.origins.size() == c.packets.size()) {
        e.node = c.origins[c.step].node;
        e.depth = c.origins[c.step].depth;
      }
      c.qt->events.push_back(e);
    }
    if (tel_ != nullptr) {
      tel_->Read(TraceEventKind::kIndexRead, at, 1, /*data_read=*/false,
                 static_cast<int64_t>(c.id), c.query_index);
    }
    const int64_t p = at + 1;
    ++c.out.tuning_index;
    if (c.fail_at >= 0 && c.reads_done == c.fail_at) {
      if (c.fail_corrupt) {
        ++c.out.corrupted_packets;
        EmitRead(c, TraceEventKind::kCorruption, at);
      } else {
        ++c.out.lost_packets;
        EmitRead(c, TraceEventKind::kLoss, at);
      }
      FailAttempt(slot, c, p);
      return;
    }
    // Delivered frame: fault draws first, then the epoch check (a lost
    // or corrupted frame never reveals an epoch stamp).
    if (versioned_ && SpanAt(at) != c.span) {
      if (!RegisterSwitch(slot, c, at, SpanAt(at))) return;
      c.pos = at + 1;
      ++c.attempt;  // fresh draw streams; not a fault retry
      StartAttempt(slot, c, /*after_fault=*/false);
      return;
    }
    ++c.reads_done;
    ++c.step;
    if (static_cast<size_t>(c.step) < c.packets.size()) {
      ScheduleIndexRead(slot, c, p);
    } else {
      ScheduleBucket(slot, c, p);
    }
  }

  /// Next occurrence of the client's bucket at or after p, in the
  /// client's span's layout.
  void ScheduleBucket(int32_t slot, Client& c, int64_t p) {
    const SpanContext& sc = Span(c);
    const int64_t bucket_in_cycle =
        sc.bucket_start[static_cast<size_t>(c.region)];
    const int64_t cycle_base = ((p - sc.start) / sc.cycle) * sc.cycle;
    int64_t data_at = sc.start + cycle_base + bucket_in_cycle;
    if (data_at < p) data_at += sc.cycle;
    EmitDoze(c, data_at, static_cast<double>(data_at - p));
    c.phase = Phase::kBucketRead;
    queue_.push({static_cast<double>(data_at), slot});
  }

  /// Bucket retrieval: contiguous reads, one wake-up.
  void HandleBucketRead(int32_t slot, Client& c, int64_t data_at) {
    const int bucket_packets = Span(c).channel->bucket_packets();
    int bucket_read = 0;
    bool lost = false;
    bool corrupted_here = false;
    bool switched = false;
    int64_t switch_at = 0;
    int64_t p = 0;
    for (int b = 0; b < bucket_packets; ++b) {
      ++c.out.tuning_data;
      ++bucket_read;
      if (c.fail_at >= 0 && c.reads_done == c.fail_at) {
        if (c.fail_corrupt) {
          ++c.out.corrupted_packets;
          corrupted_here = true;
        } else {
          ++c.out.lost_packets;
        }
        lost = true;
        p = data_at + b + 1;  // failure detected at the packet's end
        break;
      }
      if (versioned_ && SpanAt(data_at + b) != c.span) {
        switched = true;  // delivered frame from a newer epoch
        switch_at = data_at + b;
        break;
      }
      ++c.reads_done;
    }
    EmitBucket(c, data_at, bucket_read);
    if (lost) {
      EmitRead(c,
               corrupted_here ? TraceEventKind::kCorruption
                              : TraceEventKind::kLoss,
               data_at + bucket_read - 1);
    }
    if (switched) {
      // The bucket belonged to the old epoch: its packets are not an
      // answer. Adopt the new epoch and restart the descent.
      if (!RegisterSwitch(slot, c, switch_at, SpanAt(switch_at))) return;
      c.pos = switch_at + 1;
      ++c.attempt;
      StartAttempt(slot, c, /*after_fault=*/false);
      return;
    }
    if (!lost) {
      const int64_t done = data_at + bucket_packets;
      c.out.latency = static_cast<double>(done) - c.arrival;
      CompleteQuery(slot, c, static_cast<double>(done));
      return;
    }
    FailAttempt(slot, c, p);
  }

  /// A read of the current attempt failed at position p - 1: re-tune to
  /// the next index repetition, or fall off the retry rung. The budget
  /// check is on out.retries (not the restart ordinal) so epoch-switch
  /// restarts never consume retry budget; with one span out.retries
  /// equals the restart count and this is the legacy condition verbatim.
  void FailAttempt(int32_t slot, Client& c, int64_t p) {
    c.pos = p;
    if (c.out.retries >= lopt_.max_retries) {
      Conclude(slot, c, c.pos, GiveUpStage::kRetryBudget);
      return;
    }
    ++c.attempt;
    StartAttempt(slot, c, /*after_fault=*/true);
  }

  /// Degradation ladder, final rung — Simulate's `conclude` (the
  /// epoch-aware form of BroadcastTimeline::Simulate when versioned), run
  /// inside the current wake-up (the fallback scan is continuous
  /// listening). Only ever reached under faults. The scan listens to
  /// every packet, so the first packet of a new span reveals a switch
  /// mid-lump; bucket packets are checked after their fault draws. An
  /// epoch-truncated scan does not consume a fallback cycle (the cycle
  /// budget bounds fault failures; the switch budget bounds truncations).
  void Conclude(int32_t slot, Client& c, int64_t give_up_pos,
                GiveUpStage stage) {
    if (lopt_.fallback_scan_cycles > 0) {
      LossProcess loss(lopt_, c.loss_stream);
      CorruptionProcess corrupt(lopt_.corruption, frame_bits_,
                                c.loss_stream);
      int cycle = 0;
      while (cycle < lopt_.fallback_scan_cycles) {
        c.out.fallback_scan = true;
        loss.StartStream(LossProcess::FallbackStream(cycle));
        corrupt.StartStream(LossProcess::FallbackStream(cycle));
        const SpanContext& sc = Span(c);
        const int bucket_packets = sc.channel->bucket_packets();
        const int64_t bucket_in_cycle =
            sc.bucket_start[static_cast<size_t>(c.region)];
        const int64_t cycle_base =
            ((give_up_pos - sc.start) / sc.cycle) * sc.cycle;
        int64_t data_at = sc.start + cycle_base + bucket_in_cycle;
        if (data_at < give_up_pos) data_at += sc.cycle;
        if (versioned_) {
          // Epoch boundary inside the listening lump: the first listened
          // packet beyond the span reveals the switch before the bucket
          // is ever reached.
          const int64_t reveal = std::max(give_up_pos, SpanEnd(c.span));
          if (reveal < data_at) {
            const int listened =
                static_cast<int>(reveal + 1 - give_up_pos);
            c.out.tuning_index += listened;
            if (c.qt != nullptr) {
              TraceEvent e;
              e.kind = TraceEventKind::kFallbackScan;
              e.pos = give_up_pos;
              e.packet = listened;
              e.attempt = cycle;
              c.qt->events.push_back(e);
            }
            if (tel_ != nullptr) {
              tel_->Read(TraceEventKind::kFallbackScan, give_up_pos,
                         listened, /*data_read=*/false,
                         static_cast<int64_t>(c.id), c.query_index);
            }
            if (!RegisterSwitch(slot, c, reveal, SpanAt(reveal))) return;
            give_up_pos = reveal + 1;
            continue;  // re-scan in the new epoch; no cycle consumed
          }
        }
        const int64_t listened = data_at - give_up_pos;
        c.out.tuning_index += static_cast<int>(listened);
        if (c.qt != nullptr) {
          TraceEvent e;
          e.kind = TraceEventKind::kFallbackScan;
          e.pos = give_up_pos;
          e.packet = static_cast<int>(listened);
          e.attempt = cycle;
          c.qt->events.push_back(e);
        }
        if (tel_ != nullptr) {
          tel_->Read(TraceEventKind::kFallbackScan, give_up_pos,
                     static_cast<int>(listened), /*data_read=*/false,
                     static_cast<int64_t>(c.id), c.query_index);
        }
        bool lost = false;
        bool corrupted_here = false;
        bool switched = false;
        int64_t switch_at = 0;
        int bucket_read = 0;
        for (int b = 0; b < bucket_packets; ++b) {
          ++c.out.tuning_data;
          ++bucket_read;
          if (loss.enabled() && loss.NextLost()) {
            ++c.out.lost_packets;
            lost = true;
            break;
          }
          if (corrupt.enabled() && corrupt.NextCorrupted()) {
            ++c.out.corrupted_packets;
            corrupted_here = true;
            lost = true;
            break;
          }
          if (versioned_ && SpanAt(data_at + b) != c.span) {
            switched = true;  // delivered frame from a newer epoch
            switch_at = data_at + b;
            break;
          }
        }
        EmitBucket(c, data_at, bucket_read);
        if (lost) {
          EmitRead(c,
                   corrupted_here ? TraceEventKind::kCorruption
                                  : TraceEventKind::kLoss,
                   data_at + bucket_read - 1);
        }
        if (switched) {
          if (!RegisterSwitch(slot, c, switch_at, SpanAt(switch_at))) {
            return;
          }
          give_up_pos = switch_at + 1;
          continue;  // bucket was the old epoch's; rescan, same cycle
        }
        if (!lost) {
          c.out.latency =
              static_cast<double>(data_at + bucket_packets) - c.arrival;
          CompleteQuery(slot, c,
                        static_cast<double>(data_at + bucket_packets));
          return;
        }
        give_up_pos = data_at + bucket_read;  // listen past the bad packet
        ++cycle;
      }
    }
    c.out.unrecoverable = true;
    c.out.give_up =
        c.out.fallback_scan ? GiveUpStage::kFallbackBudget : stage;
    c.out.latency = static_cast<double>(give_up_pos) - c.arrival;
    CompleteQuery(slot, c, static_cast<double>(give_up_pos));
  }

  /// The query is over (answered or explicitly given up) at absolute time
  /// `done`: account it, then advance the client's arrival process —
  /// possibly through churn, which retires this session and seats the
  /// next generation in the slot after a re-join delay.
  void CompleteQuery(int32_t slot, Client& c, double done) {
    const auto& out = c.out;
    if (c.qt != nullptr) {
      c.qt->latency = out.latency;
      c.qt->tuning_total = out.tuning_total();
      c.qt->retries = out.retries;
      c.qt->lost_packets = out.lost_packets;
      c.qt->corrupted_packets = out.corrupted_packets;
      c.qt->fallback_scan = out.fallback_scan;
      c.qt->unrecoverable = out.unrecoverable;
      if (versioned_) {
        c.qt->versioned = true;
        c.qt->epoch = out.epoch;
        c.qt->epoch_switches = out.epoch_switches;
      }
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
      if (out.unrecoverable) summary.give_up = GiveUpStageName(out.give_up);
      tel_->QueryDone(done, static_cast<int64_t>(c.id), c.query_index,
                      summary);
    }

    if (cache_on_ && !out.cache_hit && !out.unrecoverable &&
        c.region >= 0) {
      // A completed answer carries a trusted epoch stamp: flush on skew
      // first, then cache the answer's valid scope under that epoch.
      const int inv = c.cache->OnEpochObserved(out.epoch);
      sums_->cache_invalidations += inv;
      const int ev = c.cache->Insert(
          Span(c).region_polys[static_cast<size_t>(c.region)], c.region,
          out.epoch);
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
        c.phase = Phase::kDone;
        return;
      }
      c.phase = Phase::kJoin;
      queue_.push({t_join, slot});
      return;
    }
    // Poisson thinking time from the *previous arrival* (an open-loop
    // arrival process), clamped so the next query never starts before
    // this one finished.
    const double think = DrawExp(&rng);
    IssueQuery(slot, c, std::max(c.arrival + think, done));
  }

  /// Exponential with mean mean_think_; u < 1 so the draw is finite.
  double DrawExp(Rng* rng) {
    return -mean_think_ * std::log1p(-rng->Uniform(0.0, 1.0));
  }

  const std::vector<SpanContext>& spans_;
  const FleetOptions& opt_;
  const LossOptions& lopt_;
  const double horizon_;
  const int64_t shard_first_;
  const int64_t shard_clients_;
  FleetShard* sums_;
  TelemetryShard* const tel_;  ///< null unless FleetOptions::telemetry
  const int64_t cycle_;  ///< span 0's cycle (join / think-time base)
  const int frame_bits_;
  const bool faults_;
  const bool versioned_;
  const bool mobility_on_;
  const bool cache_on_;
  const double mean_think_;
  const bool tracing_;
  std::vector<int64_t> starts_;  ///< starts_[s] = spans_[s].start
  std::vector<Client> clients_;
  std::priority_queue<WakeUp, std::vector<WakeUp>, WakeUpLater> queue_;
  ProbeTrace probe_scratch_;
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

/// The shared engine driver: shard layout, parallel event loops,
/// shard-ordered merge, result assembly. `spans` is one entry for
/// RunFleet, one per epoch for RunFleetVersioned; horizon and the
/// channel-shape result fields are measured against span 0.
Result<FleetResult> RunFleetImpl(const std::vector<SpanContext>& spans,
                                 bool versioned,
                                 const FleetOptions& options,
                                 std::string index_name) {
  const BroadcastChannel& ch0 = *spans[0].channel;
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
    ShardEngine engine(spans, versioned, options, horizon, shard_first,
                       shard_clients, &shards[static_cast<size_t>(s)],
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
  res.index_name = std::move(index_name);
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
  ChannelOptions copt;
  copt.packet_capacity = options.packet_capacity;
  copt.data_instance_size = options.data_instance_size;
  copt.m = options.m;
  copt.loss = options.loss;
  Result<BroadcastChannel> channel_r = BroadcastChannel::Create(
      index.NumIndexPackets(), subdivision.NumRegions(), copt);
  if (!channel_r.ok()) return channel_r.status();

  Result<QuerySampler> sampler_r = QuerySampler::Create(
      subdivision, options.distribution, options.region_weights);
  if (!sampler_r.ok()) return sampler_r.status();

  std::vector<SpanContext> spans;
  spans.push_back(MakeSpanContext(index, channel_r.value(),
                                  sampler_r.value(), subdivision,
                                  /*epoch=*/0, /*start=*/0,
                                  options.cache.enabled));
  return RunFleetImpl(spans, /*versioned=*/false, options, index.name());
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

  // Channels and samplers are owned here and borrowed by the spans; the
  // wire format (packet capacity / instance size) is shared, so every
  // epoch's channel is built from the same ChannelOptions.
  std::vector<BroadcastChannel> channels;
  std::vector<QuerySampler> samplers;
  channels.reserve(epochs.size());
  samplers.reserve(epochs.size());
  for (const FleetEpoch& e : epochs) {
    ChannelOptions copt;
    copt.packet_capacity = options.packet_capacity;
    copt.data_instance_size = options.data_instance_size;
    copt.m = options.m;
    copt.loss = options.loss;
    Result<BroadcastChannel> ch_r = BroadcastChannel::Create(
        e.index->NumIndexPackets(), e.subdivision->NumRegions(), copt);
    if (!ch_r.ok()) return ch_r.status();
    channels.push_back(std::move(ch_r.value()));
    Result<QuerySampler> sampler_r = QuerySampler::Create(
        *e.subdivision, options.distribution, options.region_weights);
    if (!sampler_r.ok()) return sampler_r.status();
    samplers.push_back(std::move(sampler_r.value()));
  }

  std::vector<SpanContext> spans;
  spans.reserve(epochs.size());
  int64_t start = 0;
  for (size_t i = 0; i < epochs.size(); ++i) {
    spans.push_back(MakeSpanContext(*epochs[i].index, channels[i],
                                    samplers[i], *epochs[i].subdivision,
                                    epochs[i].epoch, start,
                                    options.cache.enabled));
    start += epochs[i].cycles * channels[i].cycle_packets();
  }
  return RunFleetImpl(spans, /*versioned=*/true, options,
                      epochs[0].index->name());
}

}  // namespace dtree::bcast
