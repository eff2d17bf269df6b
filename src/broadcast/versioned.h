// Versioned broadcast: a timeline of epoch spans and the client access
// protocol that survives epoch switches (the version-skew rung of the
// degradation ladder).
//
// The server rebuilds its index between cycles when the dataset changes
// (src/dtree/versioned.h); on the air this appears as a sequence of
// *epoch spans*: span s broadcasts epoch e_s's cycle layout for a whole
// number of cycles, then the next span takes over at a cycle boundary.
// Every frame is stamped with its epoch (broadcast/frame.h), so a client
// that tuned in during epoch e and dozes across a switch discovers the
// skew on its next *delivered* read: the frame's CRC verifies but its
// epoch differs from the client's. Pointers cached from the old epoch are
// then worthless — the subdivision, index layout, and bucket numbering
// may all have changed — so the client abandons partial state, adopts the
// new epoch, and re-tunes to the next index segment. Each such switch
// consumes one unit of LossOptions::max_epoch_switches; a query that
// observes more switches than the budget gives up with
// GiveUpStage::kEpochChurn rather than risk a wrong answer.
//
// Ordering contract per delivered read: the fault processes draw first
// (a lost frame never arrives and a corrupted frame fails its CRC, so
// neither reveals an epoch), then the epoch check runs.
//
// The protocol is written once, in broadcast/client_protocol.h, over a
// table of epoch spans; a BroadcastChannel is the one-span table. So a
// single-span timeline plays exactly BroadcastChannel::Simulate — field
// for field, draw for draw — by construction (tests/epoch_test.cc keeps
// the differential as a regression test), and the fleet engine
// (broadcast/fleet.h) steps the same protocol. Restarts (fault re-tunes
// *and* epoch switches) share one ordinal keying LossProcess::AttemptStream,
// so the outcome is a pure function of (timeline, traces, arrival,
// loss_stream) — never of thread count.

#ifndef DTREE_BROADCAST_VERSIONED_H_
#define DTREE_BROADCAST_VERSIONED_H_

#include <cstdint>
#include <vector>

#include "broadcast/channel.h"
#include "common/status.h"

namespace dtree::bcast {

/// One epoch's stretch of the broadcast schedule. The channel is borrowed
/// (not owned) and must outlive the timeline.
struct EpochSpan {
  const BroadcastChannel* channel = nullptr;
  uint16_t epoch = 0;
  /// Whole broadcast cycles this span lasts. Must be >= 1 for every span
  /// except the last, which runs forever (its value is ignored).
  int64_t cycles = 1;
};

/// An immutable sequence of epoch spans with cycle-aligned absolute start
/// positions. Span s occupies packets [start(s), end(s)); the last span is
/// open-ended (end == INT64_MAX).
class BroadcastTimeline {
 public:
  /// Validates and precomputes span starts. Requires at least one span,
  /// a channel on every span, matching packet capacities across spans
  /// (the frame wire format — and hence per-read corruption exposure —
  /// must not change mid-broadcast), and cycles >= 1 on all but the last
  /// span. Loss options are read from span 0's channel and apply to the
  /// whole timeline.
  static Result<BroadcastTimeline> Create(std::vector<EpochSpan> spans);

  int num_spans() const { return static_cast<int>(spans_.size()); }
  const EpochSpan& span(int s) const { return spans_[static_cast<size_t>(s)]; }
  const BroadcastChannel& channel(int s) const {
    return *spans_[static_cast<size_t>(s)].channel;
  }
  /// Absolute packet position where span s begins (span 0 starts at 0).
  int64_t span_start(int s) const { return start_[static_cast<size_t>(s)]; }
  /// One past the last packet of span s; INT64_MAX for the last span.
  int64_t span_end(int s) const { return start_[static_cast<size_t>(s) + 1]; }
  /// Span containing absolute packet position pos (pos >= 0).
  int SpanAt(int64_t pos) const;

  const LossOptions& loss_options() const {
    return spans_.front().channel->loss_options();
  }

  /// Simulates the full access protocol for a client arriving at absolute
  /// continuous time `arrival` >= 0, with `traces[s]` the index search the
  /// query point resolves to under span s's index (one trace per span —
  /// the client re-probes the *new* index after an epoch switch).
  ///
  /// Protocol: BroadcastChannel::Simulate's — initial probe, index
  /// descent, bucket retrieval, fault ladder — plus the version-skew rung
  /// described in the file comment (both are ClientProtocol).
  /// QueryOutcome::epoch reports the epoch the answer (or give-up)
  /// belongs to and epoch_switches the switches survived; a query
  /// exceeding loss.max_epoch_switches gives up with
  /// GiveUpStage::kEpochChurn. `trace_out`, when non-null, receives
  /// kEpochSwitch events and has `versioned` set so its JSONL line
  /// carries the epoch summary fields.
  Result<BroadcastChannel::QueryOutcome> Simulate(
      const std::vector<ProbeTrace>& traces, double arrival,
      uint64_t loss_stream, QueryTrace* trace_out = nullptr) const;

 private:
  friend class ClientProtocol;  // views the span table without copying

  BroadcastTimeline() = default;

  std::vector<EpochSpan> spans_;
  /// start_[s] = absolute start of span s; start_[num_spans] = INT64_MAX.
  std::vector<int64_t> start_;
};

}  // namespace dtree::bcast

#endif  // DTREE_BROADCAST_VERSIONED_H_
