// The AirIndex probe contract (broadcast/air_index.h): ProbeInto is the
// only probe an index implements, and it overwrites the caller's trace in
// place; Probe is the base-class wrapper that fills a fresh trace. Pinned
// for all five implementers — the D-tree, R*-tree, trap-tree, trian-tree
// and the flat-arena adapter:
//   * Probe == ProbeInto (status, region, packets and origins) on sampled
//     points, into a fresh trace, a trace reused across queries and a
//     trace filled with junk;
//   * the D-tree never reallocates a grown trace, so a probing hot loop
//     makes no heap allocation.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/kirkpatrick/kirkpatrick.h"
#include "baselines/rstar/rstar.h"
#include "baselines/trapmap/trapmap.h"
#include "broadcast/air_index.h"
#include "broadcast/arena.h"
#include "dtree/arena.h"
#include "dtree/dtree.h"
#include "test_util.h"
#include "workload/datasets.h"

#include "gtest/gtest.h"

namespace dtree {
namespace {

using bcast::ProbeTrace;
using geom::Point;

constexpr int kCapacity = 128;
constexpr int kQueries = 2000;

/// Uniform points over the service area, near-border ones included: both
/// entry points run the same descent, so they must agree on every point.
std::vector<Point> AreaQueries(const sub::Subdivision& sub, int n,
                               uint64_t seed) {
  Rng rng(seed);
  const geom::BBox& a = sub.service_area();
  std::vector<Point> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(
        {rng.Uniform(a.min_x, a.max_x), rng.Uniform(a.min_y, a.max_y)});
  }
  return out;
}

/// A trace whose every field holds junk a correct ProbeInto overwrites.
ProbeTrace DirtyTrace() {
  ProbeTrace t;
  t.region = 12345;
  t.packets.assign(300, 7);
  t.origins.assign(300, bcast::ProbePacketOrigin{99, 99});
  return t;
}

void ExpectSameTrace(const ProbeTrace& want, const ProbeTrace& got,
                     const std::string& what, const Point& p) {
  EXPECT_EQ(want.region, got.region) << what << " at " << p.x << ", " << p.y;
  EXPECT_EQ(want.packets, got.packets) << what << " at " << p.x << ", "
                                       << p.y;
  ASSERT_EQ(want.origins.size(), got.origins.size())
      << what << " at " << p.x << ", " << p.y;
  for (size_t i = 0; i < want.origins.size(); ++i) {
    EXPECT_EQ(want.origins[i].node, got.origins[i].node) << what;
    EXPECT_EQ(want.origins[i].depth, got.origins[i].depth) << what;
  }
}

struct Indexes {
  workload::Dataset dataset;
  core::DTree dtree;
  baselines::RStarTree rstar;
  baselines::TrapMap trapmap;
  baselines::TrianTree trian;
  std::unique_ptr<bcast::ArenaIndex> arena;

  std::vector<const bcast::AirIndex*> All() const {
    return {&dtree, &rstar, &trapmap, &trian, arena.get()};
  }
};

std::unique_ptr<Indexes> BuildIndexes() {
  workload::Dataset ds = workload::MakeUniformDataset().value();
  core::DTree::Options dopt;
  dopt.packet_capacity = kCapacity;
  core::DTree dtree = core::DTree::Build(ds.subdivision, dopt).value();
  baselines::RStarTree::Options ropt;
  ropt.packet_capacity = kCapacity;
  baselines::RStarTree rstar =
      baselines::RStarTree::Build(ds.subdivision, ropt).value();
  baselines::TrapMap::Options topt;
  topt.packet_capacity = kCapacity;
  baselines::TrapMap trapmap =
      baselines::TrapMap::Build(ds.subdivision, topt).value();
  baselines::TrianTree::Options kopt;
  kopt.packet_capacity = kCapacity;
  baselines::TrianTree trian =
      baselines::TrianTree::Build(ds.subdivision, kopt).value();
  auto arena = std::make_unique<bcast::ArenaIndex>(
      core::BuildDTreeArenaIndex(dtree).value());
  return std::make_unique<Indexes>(
      Indexes{std::move(ds), std::move(dtree), std::move(rstar),
              std::move(trapmap), std::move(trian), std::move(arena)});
}

TEST(ProbeContractTest, ProbeEqualsProbeIntoForEveryIndex) {
  const std::unique_ptr<Indexes> ix = BuildIndexes();
  const std::vector<Point> queries =
      AreaQueries(ix->dataset.subdivision, kQueries, 4141);
  for (const bcast::AirIndex* index : ix->All()) {
    SCOPED_TRACE(index->name());
    ProbeTrace reused;
    int annotated = 0;
    for (const Point& p : queries) {
      const Result<ProbeTrace> fresh = index->Probe(p);
      const Status reused_st = index->ProbeInto(p, &reused);
      ProbeTrace dirty = DirtyTrace();
      const Status dirty_st = index->ProbeInto(p, &dirty);
      ASSERT_EQ(fresh.ok(), reused_st.ok()) << reused_st.ToString();
      ASSERT_EQ(fresh.ok(), dirty_st.ok()) << dirty_st.ToString();
      if (!fresh.ok()) {
        EXPECT_EQ(fresh.status().code(), reused_st.code());
        EXPECT_EQ(fresh.status().code(), dirty_st.code());
        continue;
      }
      ExpectSameTrace(fresh.value(), reused, "reused trace", p);
      ExpectSameTrace(fresh.value(), dirty, "dirty trace", p);
      EXPECT_GE(fresh.value().region, 0);
      if (!fresh.value().origins.empty()) ++annotated;
      if (::testing::Test::HasFailure()) return;
    }
    // Only the D-tree (in memory or as an arena) annotates its reads.
    if (index == &ix->dtree || index == ix->arena.get()) {
      EXPECT_EQ(annotated, kQueries);
    } else {
      EXPECT_EQ(annotated, 0);
    }
  }
}

TEST(ProbeContractTest, DTreeProbeIntoReusesAGrownTrace) {
  const std::unique_ptr<Indexes> ix = BuildIndexes();
  const std::vector<Point> queries =
      AreaQueries(ix->dataset.subdivision, kQueries, 4242);

  // A second probe of the same point fits the vectors the first one grew.
  ProbeTrace trace;
  ASSERT_TRUE(ix->dtree.ProbeInto(queries[0], &trace).ok());
  const int* packets = trace.packets.data();
  const bcast::ProbePacketOrigin* origins = trace.origins.data();
  ASSERT_NE(packets, nullptr);
  ASSERT_NE(origins, nullptr);
  ASSERT_TRUE(ix->dtree.ProbeInto(queries[0], &trace).ok());
  EXPECT_EQ(trace.packets.data(), packets);
  EXPECT_EQ(trace.origins.data(), origins);

  // A D-tree trace reads each packet at most once, so a trace grown to the
  // index size serves every query without reallocating.
  const size_t bound = static_cast<size_t>(ix->dtree.NumIndexPackets());
  trace.packets.reserve(bound);
  trace.origins.reserve(bound);
  packets = trace.packets.data();
  origins = trace.origins.data();
  for (const Point& p : queries) {
    ASSERT_TRUE(ix->dtree.ProbeInto(p, &trace).ok());
    ASSERT_EQ(trace.packets.data(), packets);
    ASSERT_EQ(trace.origins.data(), origins);
  }
}

}  // namespace
}  // namespace dtree
