#include "broadcast/client_protocol.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "broadcast/frame.h"
#include "broadcast/loss.h"
#include "broadcast/telemetry.h"
#include "common/check.h"

namespace dtree::bcast {

namespace {

/// A query's two fault processes on one sub-stream, rebuilt from their
/// stream keys. Their state is a pure function of (options, query stream,
/// sub-stream), so building them where a draw sequence starts replays
/// exactly the draws a resident process would have made.
struct FaultDraws {
  enum Read : uint8_t { kDelivered, kLost, kCorrupted };

  FaultDraws(const LossOptions& lopt, int frame_bits, uint64_t query,
             uint64_t sub_stream)
      : loss(lopt, query, sub_stream),
        corrupt(lopt.corruption, frame_bits, query, sub_stream) {}

  /// Loss is drawn first — a lost packet has no bits to corrupt — and the
  /// corruption stream advances only for delivered packets.
  Read Next() {
    if (loss.enabled() && loss.NextLost()) return kLost;
    if (corrupt.enabled() && corrupt.NextCorrupted()) return kCorrupted;
    return kDelivered;
  }

  LossProcess loss;
  CorruptionProcess corrupt;
};

void Emit(const ProtocolEmitter& em, TraceEventKind kind, int64_t pos,
          int packet = -1, int attempt = 0) {
  if (em.active()) {
    em.Record(
        {.kind = kind, .pos = pos, .packet = packet, .attempt = attempt});
  }
}

void Doze(const ProtocolEmitter& em, int64_t resume_at, double dur) {
  if (dur > 0.0 && em.active()) {
    em.Record({.kind = TraceEventKind::kDoze, .pos = resume_at, .dur = dur});
  }
}

enum class BucketEnd : uint8_t { kComplete, kFailed, kSwitched };

// An erasure means the packet never arrived; a delivered packet with bit
// errors fails its CRC-32 frame check. Either way the read is wasted.
void CountFailure(ClientState& st, bool corrupt, int64_t at,
                  const ProtocolEmitter& em) {
  if (corrupt) {
    ++st.out.corrupted_packets;
    Emit(em, TraceEventKind::kCorruption, at);
  } else {
    ++st.out.lost_packets;
    Emit(em, TraceEventKind::kLoss, at);
  }
}

Wake Done(int64_t done, int64_t switch_at = -1) {
  return {.t = done, .switch_at = switch_at, .kind = Wake::kDone};
}

}  // namespace

void ProtocolEmitter::Record(const TraceEvent& e) const {
  if (trace != nullptr) trace->events.push_back(e);
  if (telemetry != nullptr) telemetry->Record(e);
}

void MirrorOutcome(const QueryOutcome& out, bool versioned,
                   QueryTrace* trace) {
  if (trace == nullptr) return;
  trace->latency = out.latency;
  trace->tuning_total = out.tuning_total();
  trace->retries = out.retries;
  trace->lost_packets = out.lost_packets;
  trace->corrupted_packets = out.corrupted_packets;
  trace->fallback_scan = out.fallback_scan;
  trace->unrecoverable = out.unrecoverable;
  if (versioned) {
    trace->versioned = true;
    trace->epoch = out.epoch;
    trace->epoch_switches = out.epoch_switches;
  }
}

ClientProtocol::ClientProtocol(const BroadcastChannel& channel)
    : spans_(&single_),
      starts_(single_starts_),
      num_spans_(1),
      lopt_(channel.loss_options()),
      faults_(lopt_.any_fault()),
      frame_bits_(FrameBits(channel.packet_capacity())),
      single_{&channel, 0, 1},
      single_starts_{0, std::numeric_limits<int64_t>::max()} {}

ClientProtocol::ClientProtocol(const BroadcastTimeline& timeline)
    : spans_(timeline.spans_.data()),
      starts_(timeline.start_.data()),
      num_spans_(timeline.num_spans()),
      lopt_(timeline.loss_options()),
      faults_(lopt_.any_fault()),
      frame_bits_(FrameBits(timeline.channel(0).packet_capacity())),
      single_{},
      single_starts_{0, 0} {}

int ClientProtocol::SpanAt(int64_t pos) const {
  if (num_spans_ == 1) return 0;
  DTREE_CHECK(pos >= 0);
  const int64_t* it = std::upper_bound(starts_, starts_ + num_spans_, pos);
  return static_cast<int>(it - starts_) - 1;
}

// Smallest index-segment start >= t in span `span`'s layout. Positions
// beyond the span extrapolate its layout; the frames actually broadcast
// there belong to the next epoch and the reads will say so. t is never
// before the span start (audited at the backward-pointer call site): a
// negative offset would truncate toward zero and return a segment that
// may lie in the past.
int64_t ClientProtocol::NextSegmentStart(int span, int64_t t) const {
  const BroadcastChannel& ch = channel(span);
  const int64_t start = starts_[span];
  const int64_t local = t - start;
  DTREE_CHECK(local >= 0);
  const int64_t cycle = ch.cycle_packets();
  const int64_t base = (local / cycle) * cycle;
  for (int j = 0; j < ch.m(); ++j) {
    const int64_t seg = ch.IndexSegmentStart(j);
    if (seg >= local - base) return start + base + seg;
  }
  return start + base + cycle + ch.IndexSegmentStart(0);
}

// Next occurrence of `region`'s bucket at or after t in span `span`'s
// layout.
int64_t ClientProtocol::NextBucket(int span, int region, int64_t t) const {
  const BroadcastChannel& ch = channel(span);
  const int64_t start = starts_[span];
  const int64_t cycle = ch.cycle_packets();
  int64_t at = start + ((t - start) / cycle) * cycle + ch.BucketStart(region);
  if (at < t) at += cycle;
  return at;
}

// Read ordinal of the first failed read among the next `num_reads` reads
// of one sub-stream, or -1 when all succeed. The processes make no draws
// after the first failure, which is also why replaying up front equals
// drawing lazily at each read.
int ClientProtocol::FirstFailedRead(uint64_t loss_stream, uint64_t sub_stream,
                                    int num_reads, bool* corrupt) const {
  FaultDraws draws(lopt_, frame_bits_, loss_stream, sub_stream);
  for (int i = 0; i < num_reads; ++i) {
    const FaultDraws::Read r = draws.Next();
    if (r != FaultDraws::kDelivered) {
      *corrupt = r == FaultDraws::kCorrupted;
      return i;
    }
  }
  return -1;
}

void ClientProtocol::Start(ClientState* st, double arrival,
                           uint64_t loss_stream) const {
  *st = ClientState{};
  st->arrival = arrival;
  st->loss_stream = loss_stream;
  st->span = SpanAt(static_cast<int64_t>(std::floor(arrival)) + 1);
}

Wake ClientProtocol::Step(ClientState& st, const ProbeTrace& trace,
                          int64_t now, const ProtocolEmitter& em) const {
  switch (st.phase) {
    case ProtocolPhase::kIssue: {
      // Wait for the next packet *start*: a packet whose transmission
      // began exactly at the arrival instant is already in flight, so the
      // probe is floor(arrival) + 1 (ceil(arrival) for non-integers).
      const int64_t probe = static_cast<int64_t>(std::floor(st.arrival)) + 1;
      Doze(em, probe, static_cast<double>(probe) - st.arrival);
      st.phase = ProtocolPhase::kProbe;
      return {.t = probe};
    }
    case ProtocolPhase::kProbe:
      return Probe(st, trace, now, em);
    case ProtocolPhase::kAttempt:
      return StartAttempt(st, trace, /*after_fault=*/false, em);
    case ProtocolPhase::kIndexRead:
      return IndexRead(st, trace, now, em);
    case ProtocolPhase::kBucketRead:
      return BucketRead(st, trace, now, em);
    case ProtocolPhase::kScan:
      return Scan(st, trace, em);
  }
  DTREE_CHECK(false);
  return {};
}

// Initial probe burst: read one packet to learn where the next index
// segment starts (every packet carries that pointer). A failed read costs
// one packet; the client reads the following one, within the retry
// budget. The burst is contiguous listening, so it is one step.
Wake ClientProtocol::Probe(ClientState& st, const ProbeTrace& trace,
                           int64_t at, const ProtocolEmitter& em) const {
  st.out.tuning_probe = 1;
  Emit(em, TraceEventKind::kProbe, at);
  if (faults_) {
    FaultDraws draws(lopt_, frame_bits_, st.loss_stream,
                     LossProcess::kProbeStream);
    for (FaultDraws::Read r; (r = draws.Next()) != FaultDraws::kDelivered;) {
      CountFailure(st, r == FaultDraws::kCorrupted, at, em);
      if (st.out.tuning_probe > lopt_.max_retries) {
        // Never heard a single frame: scan from the span on the air.
        st.pos = at + 1;
        st.stage = GiveUpStage::kProbeBudget;
        st.phase = ProtocolPhase::kScan;
        return Adopt(st, trace, at + 1, em);
      }
      ++st.out.tuning_probe;
      ++at;
      Emit(em, TraceEventKind::kProbe, at);
    }
  }
  st.pos = at + 1;
  st.attempt = 0;
  st.phase = ProtocolPhase::kAttempt;
  return Adopt(st, trace, at, em);
}

// Probing is how the client learns the current epoch: the span of the
// last successful probe read becomes its tune-in epoch without consuming
// a switch (lost / corrupted probes reveal nothing).
Wake ClientProtocol::Adopt(ClientState& st, const ProbeTrace& trace,
                           int64_t at, const ProtocolEmitter& em) const {
  const int s = SpanAt(at);
  st.out.epoch = spans_[s].epoch;
  if (s != st.span) {
    st.span = s;
    return {.t = at, .kind = Wake::kRetrace};
  }
  return st.phase == ProtocolPhase::kScan
             ? Scan(st, trace, em)
             : StartAttempt(st, trace, /*after_fault=*/false, em);
}

// Restart st.attempt at st.pos: replay where its fixed read sequence
// (trace packets, then bucket packets) first fails, and jump to the first
// index segment at or after pos. Fault re-tunes count toward retries;
// epoch-switch restarts only re-key the draw streams.
Wake ClientProtocol::StartAttempt(ClientState& st, const ProbeTrace& trace,
                                  bool after_fault,
                                  const ProtocolEmitter& em) const {
  if (after_fault) {
    ++st.out.retries;
    Emit(em, TraceEventKind::kRetune, st.pos, -1, st.out.retries);
  }
  st.fail_at = -1;
  if (faults_) {
    st.fail_at = FirstFailedRead(
        st.loss_stream, LossProcess::AttemptStream(st.attempt),
        static_cast<int>(trace.packets.size()) +
            channel(st.span).bucket_packets(),
        &st.fail_corrupt);
  }
  st.seg_start = NextSegmentStart(st.span, st.pos);
  DTREE_CHECK(st.seg_start >= st.pos);
  st.step = 0;
  if (trace.packets.empty()) {  // degenerate: empty index
    return ScheduleBucket(st, trace, std::max(st.pos, st.seg_start), em);
  }
  return ScheduleIndexRead(st, trace, st.pos, em);
}

// Doze until packets[step] of the descent, from position p.
Wake ClientProtocol::ScheduleIndexRead(ClientState& st,
                                       const ProbeTrace& trace, int64_t p,
                                       const ProtocolEmitter& em) const {
  const int packet_id = trace.packets[static_cast<size_t>(st.step)];
  int64_t at = st.seg_start + packet_id;
  if (at < p) {
    // The packet already went by (a backward pointer in a DAG-shaped
    // index): wait for the next index repetition that still has it
    // ahead. p - packet_id > seg_start' >= span start: a backward jump
    // only follows a read, so p = seg_start' + prev_id + 1 and at < p
    // forces packet_id <= prev_id.
    st.seg_start = NextSegmentStart(st.span, p - packet_id);
    at = st.seg_start + packet_id;
    DTREE_CHECK(at >= p);
  }
  Doze(em, at, static_cast<double>(at - p));
  st.phase = ProtocolPhase::kIndexRead;
  return {.t = at};
}

Wake ClientProtocol::IndexRead(ClientState& st, const ProbeTrace& trace,
                               int64_t at, const ProtocolEmitter& em) const {
  const size_t i = static_cast<size_t>(st.step);
  if (em.active()) {
    TraceEvent e{.kind = TraceEventKind::kIndexRead,
                 .pos = at,
                 .packet = trace.packets[i]};
    if (trace.origins.size() == trace.packets.size()) {
      e.node = trace.origins[i].node;
      e.depth = trace.origins[i].depth;
    }
    em.Record(e);
  }
  ++st.out.tuning_index;
  if (st.step == st.fail_at) {
    CountFailure(st, st.fail_corrupt, at, em);
    return Fail(st, trace, at + 1, em);
  }
  // A delivered frame: its epoch stamp is checked after the fault draws.
  if (at >= SpanEnd(st.span)) {
    return Switch(st, at, ProtocolPhase::kAttempt, em);
  }
  ++st.step;
  if (i + 1 < trace.packets.size()) {
    return ScheduleIndexRead(st, trace, at + 1, em);
  }
  return ScheduleBucket(st, trace, at + 1, em);
}

Wake ClientProtocol::ScheduleBucket(ClientState& st, const ProbeTrace& trace,
                                    int64_t p,
                                    const ProtocolEmitter& em) const {
  const int64_t data_at = NextBucket(st.span, trace.region, p);
  Doze(em, data_at, static_cast<double>(data_at - p));
  st.phase = ProtocolPhase::kBucketRead;
  return {.t = data_at};
}

namespace {

// Contiguous retrieval of the bucket at data_at, ending early at the
// failed read with bucket-relative ordinal `fail` (negative: none) or at the
// first packet of a newer span (span_end). Counts and emits the reads and
// the failure; *last is the last packet read.
BucketEnd ReadBucket(ClientState& st, int64_t data_at, int bucket_packets,
                     int64_t span_end, int fail, bool corrupt,
                     const ProtocolEmitter& em, int64_t* last) {
  BucketEnd end = BucketEnd::kComplete;
  int read = 0;
  while (read < bucket_packets) {
    const int b = read++;
    if (b == fail) {
      end = BucketEnd::kFailed;
      break;
    }
    if (data_at + b >= span_end) {
      end = BucketEnd::kSwitched;
      break;
    }
  }
  st.out.tuning_data += read;
  Emit(em, TraceEventKind::kBucketRead, data_at, read);
  *last = data_at + read - 1;
  if (end == BucketEnd::kFailed) CountFailure(st, corrupt, *last, em);
  return end;
}

}  // namespace

Wake ClientProtocol::BucketRead(ClientState& st, const ProbeTrace& trace,
                                int64_t data_at,
                                const ProtocolEmitter& em) const {
  const int first = static_cast<int>(trace.packets.size());
  int64_t last = 0;
  switch (ReadBucket(st, data_at, channel(st.span).bucket_packets(),
                     SpanEnd(st.span), st.fail_at - first, st.fail_corrupt,
                     em, &last)) {
    case BucketEnd::kFailed:
      return Fail(st, trace, last + 1, em);
    case BucketEnd::kSwitched:
      // The bucket belonged to the old epoch: its packets are no answer.
      return Switch(st, last, ProtocolPhase::kAttempt, em);
    case BucketEnd::kComplete:
      break;
  }
  st.out.latency = static_cast<double>(last + 1) - st.arrival;
  return Done(last + 1);
}

// A read failed at p - 1: re-tune to the next index repetition (the
// (1, m) recovery of Imielinski et al.) or fall off the retry rung. The
// budget is on retries, not the restart ordinal, so epoch-switch
// restarts never consume it.
Wake ClientProtocol::Fail(ClientState& st, const ProbeTrace& trace,
                          int64_t p, const ProtocolEmitter& em) const {
  st.pos = p;
  if (st.out.retries >= lopt_.max_retries) {
    st.stage = GiveUpStage::kRetryBudget;
    return Scan(st, trace, em);
  }
  ++st.attempt;
  return StartAttempt(st, trace, /*after_fault=*/true, em);
}

// Degradation ladder, final rung. With fallback disabled the query is
// unrecoverable at st.pos; otherwise the client stops trusting the index
// and listens to *every* packet until its bucket has gone by, still
// subject to faults on the bucket packets. It recognizes the bucket by
// content, so scanned packets are only counted (tuning_index). Listening
// reveals an epoch switch at the first packet of a new span, before or
// inside the bucket; a switch does not consume a scan cycle (the cycle
// budget bounds fault failures, the switch budget bounds truncations).
Wake ClientProtocol::Scan(ClientState& st, const ProbeTrace& trace,
                          const ProtocolEmitter& em) const {
  while (st.scan_cycle < lopt_.fallback_scan_cycles) {
    st.out.fallback_scan = true;
    const int64_t from = st.pos;
    const int64_t data_at = NextBucket(st.span, trace.region, from);
    const int64_t reveal = std::max(from, SpanEnd(st.span));
    const int64_t listened = (reveal < data_at ? reveal + 1 : data_at) - from;
    st.out.tuning_index += static_cast<int>(listened);
    Emit(em, TraceEventKind::kFallbackScan, from,
         static_cast<int>(listened), st.scan_cycle);
    if (reveal < data_at) return Switch(st, reveal, ProtocolPhase::kScan, em);

    const BroadcastChannel& ch = channel(st.span);
    bool corrupt = false;
    const int fail =
        faults_ ? FirstFailedRead(st.loss_stream,
                                  LossProcess::FallbackStream(st.scan_cycle),
                                  ch.bucket_packets(), &corrupt)
                : -1;
    int64_t last = 0;
    switch (ReadBucket(st, data_at, ch.bucket_packets(), SpanEnd(st.span),
                       fail, corrupt, em, &last)) {
      case BucketEnd::kSwitched:
        return Switch(st, last, ProtocolPhase::kScan, em);
      case BucketEnd::kComplete:
        st.out.latency = static_cast<double>(last + 1) - st.arrival;
        return Done(last + 1);
      case BucketEnd::kFailed:
        break;
    }
    st.pos = last + 1;  // listen past the bad packet
    ++st.scan_cycle;
  }
  st.out.unrecoverable = true;
  st.out.give_up =
      st.out.fallback_scan ? GiveUpStage::kFallbackBudget : st.stage;
  st.out.latency = static_cast<double>(st.pos) - st.arrival;
  return Done(st.pos);
}

// Version-skew rung: a delivered read at `at` carried a newer epoch's
// stamp. Pointers from the old epoch are worthless, so the client adopts
// the new epoch and restarts (`resume`) after the revealing read — or,
// past the switch budget, gives up rather than risk a wrong answer
// (latency then runs through the revealing read).
Wake ClientProtocol::Switch(ClientState& st, int64_t at,
                            ProtocolPhase resume,
                            const ProtocolEmitter& em) const {
  const int s = SpanAt(at);
  ++st.out.epoch_switches;
  Emit(em, TraceEventKind::kEpochSwitch, at,
       static_cast<int>(spans_[s].epoch), st.out.epoch_switches);
  st.span = s;
  st.out.epoch = spans_[s].epoch;
  if (st.out.epoch_switches > lopt_.max_epoch_switches) {
    st.out.unrecoverable = true;
    st.out.give_up = GiveUpStage::kEpochChurn;
    st.out.latency = static_cast<double>(at + 1) - st.arrival;
    return Done(at + 1, at);
  }
  st.pos = at + 1;
  if (resume == ProtocolPhase::kAttempt) ++st.attempt;
  st.phase = resume;
  return {.t = at, .switch_at = at, .kind = Wake::kRetrace};
}

// Flattened: the synchronous drivers pay no call per step, which keeps
// Simulate about as cheap as a hand-inlined loop.
[[gnu::flatten]] QueryOutcome ClientProtocol::Run(
    const ProbeTrace* traces, double arrival, uint64_t loss_stream,
    QueryTrace* trace_out) const {
  ClientState st;
  Start(&st, arrival, loss_stream);
  const ProtocolEmitter em{.trace = trace_out};
  for (int64_t now = 0;;) {
    const Wake w = Step(st, traces[st.span], now, em);
    if (w.kind == Wake::kDone) return st.out;
    now = w.t;
  }
}

// The indexless baseline: the client listens continuously on a pure-data
// cycle, so only its own bucket packets are exposed to faults. A failed
// bucket costs another full cycle of listening (counted in retries), up
// to max_retries extra passes, each on its own NoIndexStream sub-stream.
// With faults off no RNG is constructed.
QueryOutcome ClientProtocol::RunNoIndex(int region, double arrival,
                                        uint64_t loss_stream) const {
  const BroadcastChannel& ch = channel(0);
  DTREE_CHECK(region >= 0 && region < ch.num_regions());
  DTREE_CHECK(std::isfinite(arrival) && arrival >= 0.0);
  const int64_t cycle = ch.data_packets();
  const int bucket_packets = ch.bucket_packets();
  const double a = std::fmod(arrival, static_cast<double>(cycle));
  int64_t listen_from = static_cast<int64_t>(std::floor(a)) + 1;
  int64_t data_at = static_cast<int64_t>(region) * bucket_packets;
  if (data_at < listen_from) data_at += cycle;
  QueryOutcome out;
  out.tuning_probe = 0;
  for (int pass = 0;; ++pass) {
    out.tuning_index += static_cast<int>(data_at - listen_from);
    bool corrupt = false;
    const int fail =
        faults_ ? FirstFailedRead(loss_stream, LossProcess::NoIndexStream(pass),
                                  bucket_packets, &corrupt)
                : -1;
    if (fail < 0) {
      out.tuning_data += bucket_packets;
      out.latency = static_cast<double>(data_at + bucket_packets) - a;
      return out;
    }
    out.tuning_data += fail + 1;
    ++(corrupt ? out.corrupted_packets : out.lost_packets);
    listen_from = data_at + fail + 1;  // listen past the bad packet
    if (pass == lopt_.max_retries) break;
    ++out.retries;
    data_at += cycle;
  }
  out.unrecoverable = true;
  out.give_up = GiveUpStage::kRetryBudget;
  out.latency = static_cast<double>(listen_from) - a;
  return out;
}

}  // namespace dtree::bcast
