#include "broadcast/channel.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "broadcast/client_protocol.h"
#include "common/check.h"

namespace dtree::bcast {

const char* GiveUpStageName(GiveUpStage stage) {
  switch (stage) {
    case GiveUpStage::kNone: return "none";
    case GiveUpStage::kProbeBudget: return "probe_budget";
    case GiveUpStage::kRetryBudget: return "retry_budget";
    case GiveUpStage::kFallbackBudget: return "fallback_budget";
    case GiveUpStage::kEpochChurn: return "epoch_churn";
  }
  return "unknown";
}

Result<BroadcastChannel> BroadcastChannel::Create(
    int index_packets, int num_regions, const ChannelOptions& options) {
  if (options.packet_capacity < 1) {
    return Status::InvalidArgument("packet capacity must be positive");
  }
  if (num_regions < 1) {
    return Status::InvalidArgument("channel needs at least one data bucket");
  }
  if (index_packets < 0) {
    return Status::InvalidArgument("negative index size");
  }
  // A bucket must span at least one packet and its packet count must fit
  // an int: a zero-sized instance would make every cycle position
  // degenerate (fmod by zero in the indexless baseline), and a truncated
  // count would silently shrink the bucket.
  if (options.data_instance_size == 0) {
    return Status::InvalidArgument("data instance size must be positive");
  }
  const size_t cap = static_cast<size_t>(options.packet_capacity);
  const size_t bucket_packets = options.data_instance_size / cap +
                                (options.data_instance_size % cap != 0);
  if (bucket_packets > static_cast<size_t>(std::numeric_limits<int>::max())) {
    return Status::InvalidArgument(
        "data instance size needs more packets per bucket than an int holds");
  }
  DTREE_RETURN_IF_ERROR(ValidateLossOptions(options.loss));

  BroadcastChannel ch;
  ch.loss_ = options.loss;
  ch.packet_capacity_ = options.packet_capacity;
  ch.index_packets_ = index_packets;
  ch.num_regions_ = num_regions;
  ch.bucket_packets_ = static_cast<int>(bucket_packets);
  ch.data_packets_ =
      static_cast<int64_t>(num_regions) * ch.bucket_packets_;

  int m = options.m;
  if (m == 0) {
    // Optimal index replication from "Data on air": m* = sqrt(Data/Index).
    if (index_packets == 0) {
      m = 1;
    } else {
      m = static_cast<int>(std::lround(std::sqrt(
          static_cast<double>(ch.data_packets_) / index_packets)));
    }
  }
  m = std::clamp(m, 1, num_regions);
  ch.m_ = m;

  // Split data buckets into m nearly equal contiguous chunks.
  ch.chunk_first_.resize(m + 1);
  for (int j = 0; j <= m; ++j) {
    ch.chunk_first_[j] =
        static_cast<int>((static_cast<int64_t>(num_regions) * j) / m);
  }
  ch.segment_start_.resize(m);
  for (int j = 0; j < m; ++j) {
    ch.segment_start_[j] =
        static_cast<int64_t>(j) * index_packets +
        static_cast<int64_t>(ch.chunk_first_[j]) * ch.bucket_packets_;
  }
  ch.cycle_packets_ =
      static_cast<int64_t>(m) * index_packets + ch.data_packets_;
  return ch;
}

int64_t BroadcastChannel::IndexSegmentStart(int j) const {
  DTREE_CHECK(j >= 0 && j < m_);
  return segment_start_[j];
}

int64_t BroadcastChannel::BucketStart(int r) const {
  DTREE_CHECK(r >= 0 && r < num_regions_);
  // Chunk containing bucket r.
  const auto it = std::upper_bound(chunk_first_.begin(), chunk_first_.end(),
                                   r);
  const int chunk = static_cast<int>(it - chunk_first_.begin()) - 1;
  DTREE_CHECK(chunk >= 0 && chunk < m_);
  return segment_start_[chunk] + index_packets_ +
         static_cast<int64_t>(r - chunk_first_[chunk]) * bucket_packets_;
}

Result<BroadcastChannel::QueryOutcome> BroadcastChannel::Simulate(
    const ProbeTrace& trace, double arrival, uint64_t loss_stream,
    QueryTrace* trace_out) const {
  // NaN compares false against both bounds, so the finiteness check is
  // load-bearing: without it a NaN arrival would flow into floor() and
  // int64 casts (undefined behavior), not an error.
  if (!std::isfinite(arrival) || arrival < 0.0 ||
      arrival >= static_cast<double>(cycle_packets_)) {
    return Status::InvalidArgument("arrival outside the broadcast cycle");
  }
  DTREE_RETURN_IF_ERROR(ValidateTrace(trace, std::max(index_packets_, 1),
                                      num_regions_,
                                      /*require_forward=*/false));
  const QueryOutcome out =
      ClientProtocol(*this).Run(&trace, arrival, loss_stream, trace_out);
  MirrorOutcome(out, /*versioned=*/false, trace_out);
  return out;
}

BroadcastChannel::QueryOutcome BroadcastChannel::SimulateNoIndex(
    int region, double arrival, uint64_t loss_stream) const {
  return ClientProtocol(*this).RunNoIndex(region, arrival, loss_stream);
}

}  // namespace dtree::bcast
