// The client access protocol on the (1, m) channel, written once.
//
// A query plays the paper's protocol — initial probe, dozing index
// descent, bucket retrieval — plus the degradation ladder: probe retries,
// re-tunes to the next index repetition after a lost or corrupted read,
// the linear-scan fallback, the version-skew rung (an epoch switch
// revealed by a delivered frame) and every give-up. ClientProtocol is that
// machine as a resumable step function over a table of epoch spans:
// ClientState holds one client's in-flight query, and Step advances it
// from one wake-up to the next. A single channel is a one-span table.
//
// Drivers:
//   * BroadcastChannel::Simulate and BroadcastTimeline::Simulate call Run,
//     which loops Step to completion (handing over traces[span] whenever
//     the client trusts a new span);
//   * the fleet engine (broadcast/fleet.h) plays kRead wake-ups in place
//     and queues only the completion, re-probes its index on kRetrace and
//     flushes its region cache when a step observed an epoch switch; it
//     also replays an unrecoverable query with a trace-only emitter to
//     rebuild its flight record.
// Every driver therefore plays the same packet arithmetic, fault-draw
// order and event order; "fleet == Simulate" and "single-span timeline ==
// channel" hold by construction.
//
// Fault draws: an attempt reads a fixed sequence (trace length + bucket
// packets) from its own sub-stream, so the fault processes are rebuilt
// from their stream keys inside the step that needs them and replayed to
// the first failed read; they are never part of ClientState. Per-read
// ordering: loss first, corruption only for delivered frames, then the
// epoch check (a failed read reveals no epoch stamp). Restarts — fault
// re-tunes and epoch switches — share one ordinal keying
// LossProcess::AttemptStream.

#ifndef DTREE_BROADCAST_CLIENT_PROTOCOL_H_
#define DTREE_BROADCAST_CLIENT_PROTOCOL_H_

#include <cstdint>

#include "broadcast/air_index.h"
#include "broadcast/channel.h"
#include "broadcast/trace.h"
#include "broadcast/versioned.h"

namespace dtree::bcast {

class TelemetryShard;  // broadcast/telemetry.h

using QueryOutcome = BroadcastChannel::QueryOutcome;

/// Where a client's protocol events go: a nullable per-query trace and a
/// nullable telemetry shard. Purely observational — the protocol never
/// reads either back.
struct ProtocolEmitter {
  QueryTrace* trace = nullptr;
  TelemetryShard* telemetry = nullptr;

  bool active() const { return trace != nullptr || telemetry != nullptr; }
  /// Routes one event to both sinks. Callers test active() first, so a
  /// silent emitter costs one branch and builds no event.
  void Record(const TraceEvent& e) const;
};

/// Copies the outcome summary into `trace` (no-op when null); `versioned`
/// also stamps the epoch fields that gate the versioned JSON keys.
void MirrorOutcome(const QueryOutcome& out, bool versioned,
                   QueryTrace* trace);

/// What a client does when its current step ends.
enum class ProtocolPhase : uint8_t {
  kIssue,       ///< doze until the first probe packet
  kProbe,       ///< initial probe burst (contiguous listening)
  kAttempt,     ///< (re)start an index descent at `pos`
  kIndexRead,   ///< read packets[step] of the current descent
  kBucketRead,  ///< contiguous bucket retrieval
  kScan,        ///< linear-scan fallback from `pos` (contiguous)
};

/// One client's in-flight query. Plain data, kept small: the fleet holds
/// one per client.
struct ClientState {
  double arrival = 0.0;      ///< absolute continuous arrival time
  uint64_t loss_stream = 0;  ///< keys the query's fault sub-streams
  int64_t pos = 0;           ///< restart point / fallback scan position
  int64_t seg_start = 0;     ///< index segment of the current descent
  QueryOutcome out;
  int32_t span = 0;          ///< epoch span the client currently trusts
  int32_t attempt = 0;       ///< restart ordinal (AttemptStream key)
  int32_t step = 0;          ///< next trace packet of the descent
  int32_t fail_at = -1;      ///< read ordinal of the attempt's first
                             ///< failed read; -1 = none
  int32_t scan_cycle = 0;    ///< fallback scan cycle (FallbackStream key)
  bool fail_corrupt = false; ///< that read fails its CRC (not a loss)
  GiveUpStage stage = GiveUpStage::kNone;  ///< rung that led to the scan
  ProtocolPhase phase = ProtocolPhase::kIssue;
};

/// Result of one Step.
struct Wake {
  enum Kind : uint8_t {
    kRead,     ///< call Step again at packet `t`
    kRetrace,  ///< the client trusts a new span: hand over that span's
               ///< trace, then call Step again right away
    kDone,     ///< the query is over (answered or given up) at `t`
  };
  int64_t t = 0;
  /// Position of the delivered read that revealed an epoch switch in this
  /// step, -1 if none (the fleet flushes its region cache there).
  int64_t switch_at = -1;
  Kind kind = kRead;
};

class ClientProtocol {
 public:
  /// One-span table: the channel broadcasts epoch 0 forever.
  explicit ClientProtocol(const BroadcastChannel& channel);
  /// The timeline's span table (borrowed; must outlive the protocol).
  explicit ClientProtocol(const BroadcastTimeline& timeline);
  ClientProtocol(const ClientProtocol&) = delete;
  ClientProtocol& operator=(const ClientProtocol&) = delete;

  const BroadcastChannel& channel(int s) const { return *spans_[s].channel; }
  uint16_t epoch(int s) const { return spans_[s].epoch; }

  /// Begins a query arriving at absolute time `arrival` (finite, >= 0);
  /// the client is on the span broadcasting its first probe packet.
  void Start(ClientState* st, double arrival, uint64_t loss_stream) const;

  /// Advances the query from a wake-up at packet `now` (ignored for the
  /// kIssue, kAttempt and kScan phases). `trace` is the index search of
  /// the query point under span st.span's index. Const and free of
  /// mutable state: many threads may step clients of one protocol.
  Wake Step(ClientState& st, const ProbeTrace& trace, int64_t now,
            const ProtocolEmitter& em) const;

  /// Runs one query to completion with traces[s] the trace under span s.
  /// Events go to `trace_out` (nullable); the caller mirrors the outcome
  /// summary into it with MirrorOutcome.
  QueryOutcome Run(const ProbeTrace* traces, double arrival,
                   uint64_t loss_stream, QueryTrace* trace_out) const;

  /// The indexless baseline (BroadcastChannel::SimulateNoIndex) on span
  /// 0's channel.
  QueryOutcome RunNoIndex(int region, double arrival,
                          uint64_t loss_stream) const;

 private:
  /// Span broadcasting absolute packet position pos (pos >= 0).
  int SpanAt(int64_t pos) const;
  int64_t SpanEnd(int s) const { return starts_[s + 1]; }
  int64_t NextSegmentStart(int span, int64_t t) const;
  int64_t NextBucket(int span, int region, int64_t t) const;
  int FirstFailedRead(uint64_t loss_stream, uint64_t sub_stream,
                      int num_reads, bool* corrupt) const;

  Wake Probe(ClientState& st, const ProbeTrace& trace, int64_t at,
             const ProtocolEmitter& em) const;
  Wake Adopt(ClientState& st, const ProbeTrace& trace, int64_t at,
             const ProtocolEmitter& em) const;
  Wake StartAttempt(ClientState& st, const ProbeTrace& trace,
                    bool after_fault, const ProtocolEmitter& em) const;
  Wake ScheduleIndexRead(ClientState& st, const ProbeTrace& trace,
                         int64_t p, const ProtocolEmitter& em) const;
  Wake IndexRead(ClientState& st, const ProbeTrace& trace, int64_t at,
                 const ProtocolEmitter& em) const;
  Wake ScheduleBucket(ClientState& st, const ProbeTrace& trace, int64_t p,
                      const ProtocolEmitter& em) const;
  Wake BucketRead(ClientState& st, const ProbeTrace& trace,
                  int64_t data_at, const ProtocolEmitter& em) const;
  Wake Fail(ClientState& st, const ProbeTrace& trace, int64_t p,
            const ProtocolEmitter& em) const;
  Wake Scan(ClientState& st, const ProbeTrace& trace,
            const ProtocolEmitter& em) const;
  Wake Switch(ClientState& st, int64_t at, ProtocolPhase resume,
              const ProtocolEmitter& em) const;

  const EpochSpan* spans_;
  const int64_t* starts_;  ///< num_spans_ + 1 entries, last INT64_MAX
  int num_spans_;
  const LossOptions& lopt_;
  bool faults_;
  int frame_bits_;
  EpochSpan single_;          ///< storage of the one-span table
  int64_t single_starts_[2];
};

}  // namespace dtree::bcast

#endif  // DTREE_BROADCAST_CLIENT_PROTOCOL_H_
