// Byte-level serialization of the paged D-tree into broadcast packets, and
// a packet-side decoder that answers queries straight from the bytes —
// exactly what a mobile client would do with the frames it receives.
//
// Node wire format (little-endian; sizes per Table 2):
//   u16  bid      — node id (breadth-first position)
//   u16  header   — bit0: partition dim (0 = y-dimensional, 1 = x-dim);
//                   bit1: large (node spans > 1 packet);
//                   bits2..15: partition size in scalar coordinates
//   u32  left_ptr  \  bit31: 1 = data pointer (low bits: region id),
//   u32  right_ptr /  0 = node pointer (bits12..30: packet, bits0..11:
//                      byte offset within that packet)
//   [large nodes, when early termination is enabled:]
//   f32  RMC      — far shortcut bound (left_rmc / upper_lwc)
//   f32  LMC      — near shortcut bound (right_lmc / lower_umc)
//   per polyline: u16 point count, then count * (f32 x, f32 y); closed
//   rings repeat their first point.
//
// Every decoder entry point is hardened: counts are range-checked on the
// way in (InvalidArgument instead of silent truncation) and every read on
// the way out is bounds-checked (a truncated or malformed stream yields a
// Status, never out-of-bounds access). For transmission over a lossy
// medium the packets can additionally be framed: FramePackets appends a
// CRC-32 trailer to each packet and the framed decoder verifies it on
// first touch, so corruption is *detected* (Status kDataLoss) rather than
// silently misrouting the query.

#ifndef DTREE_DTREE_SERIALIZE_H_
#define DTREE_DTREE_SERIALIZE_H_

#include <cstdint>
#include <vector>

#include "broadcast/frame.h"
#include "common/status.h"
#include "dtree/dtree.h"

namespace dtree::core {

// The CRC-32 framing layer (FramePackets / VerifyFrame / UnframePackets,
// trailer size kFrameCrcBytes) started here and now lives in
// broadcast/frame.h, shared by every air index and by data buckets.
// Re-exported so existing dtree::core callers keep compiling.
using bcast::kFrameCrcBytes;
using bcast::FramePackets;
using bcast::VerifyFrame;
using bcast::UnframePackets;

/// One broadcast cycle's worth of index packets in flat storage: a single
/// contiguous allocation of `NumIndexPackets() * packet_capacity` bytes
/// (zero-padded), packet i at byte offset i * capacity.
Result<bcast::PacketBuffer> SerializeDTreeFlat(const DTree& tree);

/// Legacy vector-of-vectors form of the same bytes (copies out of the
/// flat buffer).
Result<std::vector<std::vector<uint8_t>>> SerializeDTree(const DTree& tree);

/// Client-side query over raw packets: descends from packet 0 offset 0,
/// decoding nodes as it goes. Returns the region id and (out parameter)
/// the ordered list of packet ids read, applying the same early-
/// termination rule a real client would. Accepts any packet
/// representation PacketSource can view (vector-of-vectors and
/// PacketBuffer convert implicitly). Intended for round-trip tests and as
/// the flat-arena engine's bit-identical oracle.
Result<int> QueryFromPackets(bcast::PacketSource packets,
                             int packet_capacity, bool early_termination,
                             const geom::Point& p,
                             std::vector<int>* packets_read);

/// Same descent over CRC-framed packets (FramePackets output): each
/// packet's CRC is verified when the decoder first touches it, so any
/// corruption on the read path surfaces as kDataLoss — the signal the
/// lossy-channel client uses to trigger re-tune recovery.
Result<int> QueryFromFramedPackets(bcast::PacketSource frames,
                                   int packet_capacity,
                                   bool early_termination,
                                   const geom::Point& p,
                                   std::vector<int>* packets_read);

}  // namespace dtree::core

#endif  // DTREE_DTREE_SERIALIZE_H_
