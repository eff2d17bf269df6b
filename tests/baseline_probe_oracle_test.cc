// Differential of the trian-tree and R*-tree probes against the loops they
// replaced.
//
// Both probes fall back to the nearest candidate when no candidate
// contains the query point: a numeric crack between adjacent triangles or
// shapes, or (trian-tree) a point beyond the enclosing rectangle. The
// loops below are the probes as they were before that fallback's
// distances were deferred to a second pass over the same candidates:
// copied verbatim, with one added counter of fallbacks taken. ProbeInto
// must match them in status, region and packet log on every point,
// including points where the fallback runs:
//   * the three paper datasets at capacities 64 and 256, on sampler,
//     service-area and near-border points and points far outside the
//     service area;
//   * a subdivision whose two shapes leave a gap inside both bounding
//     boxes, which sends every gap point down the R*-tree's fallback,
//     and one of two identical shapes, whose notch points tie.

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "baselines/kirkpatrick/kirkpatrick.h"
#include "baselines/rstar/rstar.h"
#include "broadcast/air_index.h"
#include "broadcast/experiment.h"
#include "common/rng.h"
#include "geom/polygon.h"
#include "test_util.h"
#include "workload/datasets.h"

#include "gtest/gtest.h"

namespace dtree::baselines {

using geom::Point;
using geom::Triangle;

struct TrianTreeProbeOracle {
  static double DistanceToTriangle(const Triangle& t, const Point& p) {
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < 3; ++i) {
      best = std::min(best,
                      geom::DistanceToSegment(t.v[i], t.v[(i + 1) % 3], p));
    }
    return best;
  }

  static Status ProbeInto(const TrianTree& tree, const geom::Point& p,
                          bcast::ProbeTrace* trace, int64_t* fallbacks) {
    const auto& tris_ = tree.tris_;
    const auto& roots_ = tree.roots_;
    const auto& paging_ = tree.paging_;
    const auto& tri_bfs_pos_ = tree.tri_bfs_pos_;
    trace->region = -1;
    trace->packets.clear();
    trace->origins.clear();
    auto touch = [&](int tri_id) {
      const bcast::NodeSpan& span = paging_.spans[tri_bfs_pos_[tri_id]];
      for (int k = 0; k < span.num_packets; ++k) {
        const int packet = span.first_packet + k;
        if (trace->packets.empty() || trace->packets.back() != packet) {
          trace->packets.push_back(packet);
        }
      }
    };

    const std::vector<int>* candidates = &roots_;
    for (int depth = 0; depth < bcast::kProbeStepBudget; ++depth) {
      int found = -1;
      double best_dist = std::numeric_limits<double>::infinity();
      int nearest = -1;
      for (int c : *candidates) {
        touch(c);
        if (tris_[c].tri.Contains(p)) {
          found = c;
          break;
        }
        const double d = DistanceToTriangle(tris_[c].tri, p);
        if (d < best_dist) {
          best_dist = d;
          nearest = c;
        }
      }
      if (found < 0) {
        ++*fallbacks;
        // Numeric crack between adjacent triangles: take the nearest.
        if (nearest < 0) {
          return Status::Internal("query point escaped the triangulation");
        }
        found = nearest;
      }
      if (tris_[found].children.empty()) {
        trace->region = tris_[found].region;
        if (trace->region < 0) {
          return Status::NotFound("query point outside the service area");
        }
        return Status::OK();
      }
      candidates = &tris_[found].children;
    }
    return Status::Internal("trian-tree descent did not terminate");
  }
};

struct RStarTreeProbeOracle {
  static Status ProbeInto(const RStarTree& tree, const geom::Point& p,
                          bcast::ProbeTrace* trace, int64_t* fallbacks) {
    const int root_ = tree.root_;
    const auto& node_packet_ = tree.node_packet_;
    const auto& nodes_ = tree.nodes_;
    const auto& shape_span_ = tree.shape_span_;
    const auto& shapes_ = tree.shapes_;
    using Node = RStarTree::Node;
    using Entry = RStarTree::Entry;
    trace->region = -1;
    trace->packets.clear();
    trace->origins.clear();
    auto touch = [trace](int packet) {
      if (trace->packets.empty() || trace->packets.back() != packet) {
        trace->packets.push_back(packet);
      }
    };

    int best_fallback = -1;
    double best_fallback_dist = std::numeric_limits<double>::infinity();

    std::vector<int> stack{root_};
    int steps = 0;
    while (!stack.empty()) {
      if (++steps > bcast::kProbeStepBudget) {
        return Status::Internal("r*-tree descent exceeded the probe budget");
      }
      const int id = stack.back();
      stack.pop_back();
      touch(node_packet_[id]);
      const Node& node = nodes_[id];
      if (node.level > 0) {
        // Depth-first: push matching children in reverse so the leftmost
        // (earliest on the channel) is explored first.
        for (auto it = node.entries.rbegin(); it != node.entries.rend();
             ++it) {
          if (it->box.Contains(p)) stack.push_back(it->child);
        }
        continue;
      }
      for (const Entry& e : node.entries) {
        if (!e.box.Contains(p)) continue;
        const bcast::NodeSpan& span = shape_span_[e.region];
        for (int k = 0; k < span.num_packets; ++k) touch(span.first_packet + k);
        const geom::Polygon& poly = shapes_[e.region];
        if (poly.Contains(p)) {
          trace->region = e.region;
          return Status::OK();
        }
        const double d = poly.DistanceToBoundary(p);
        if (d < best_fallback_dist) {
          best_fallback_dist = d;
          best_fallback = e.region;
        }
      }
    }
    if (best_fallback >= 0) {
      ++*fallbacks;
      // Numeric gap between adjacent shapes: resolve to the nearest tested
      // region (the answer is ambiguous within tolerance anyway).
      trace->region = best_fallback;
      return Status::OK();
    }
    return Status::Internal("query point escaped every leaf MBR");
  }
};

namespace {

/// Points of every kind the fallback can meet: sampler points, uniform
/// service-area points, points 1e-12..1e-4 off region borders and
/// vertices, and points up to half the area's size outside it.
std::vector<Point> MixedPoints(const sub::Subdivision& sub, int per_kind,
                               uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> out;
  const bcast::QuerySampler sampler =
      bcast::QuerySampler::Create(
          sub, bcast::QueryDistribution::kUniformRegion, {})
          .value();
  for (int i = 0; i < per_kind; ++i) out.push_back(sampler.Draw(&rng));
  const geom::BBox& a = sub.service_area();
  for (int i = 0; i < per_kind; ++i) {
    out.push_back(
        {rng.Uniform(a.min_x, a.max_x), rng.Uniform(a.min_y, a.max_y)});
  }
  for (int i = 0; i < per_kind; ++i) {
    const std::vector<int>& ring = sub.Ring(
        static_cast<int>(rng.UniformInt(0, sub.NumRegions() - 1)));
    const size_t k = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(ring.size()) - 1));
    const Point v = sub.vertices()[ring[k]];
    const Point w = sub.vertices()[ring[(k + 1) % ring.size()]];
    const Point base =
        rng.UniformInt(0, 3) == 0 ? v : v + (w - v) * rng.Uniform(0.0, 1.0);
    const double off = std::pow(10.0, rng.Uniform(-12.0, -4.0));
    out.push_back({base.x + rng.Uniform(-off, off),
                   base.y + rng.Uniform(-off, off)});
  }
  const double w = a.width(), h = a.height();
  for (int i = 0; i < per_kind; ++i) {
    Point p{rng.Uniform(a.min_x - w / 2, a.max_x + w / 2),
            rng.Uniform(a.min_y - h / 2, a.max_y + h / 2)};
    if (a.Contains(p)) p.x = rng.UniformInt(0, 1) ? a.max_x + 1 : a.min_x - 1;
    out.push_back(p);
  }
  return out;
}

struct Tally {
  int64_t points = 0;
  int64_t fallbacks = 0;
};

template <typename Oracle, typename Index>
void ExpectMatchesOracle(const Index& index, const std::vector<Point>& pts,
                         const std::string& what, Tally* tally) {
  bcast::ProbeTrace want, got;
  for (const Point& p : pts) {
    const Status ws = Oracle::ProbeInto(index, p, &want, &tally->fallbacks);
    const Status gs = index.ProbeInto(p, &got);
    ++tally->points;
    ASSERT_EQ(ws.code(), gs.code()) << what << " at " << p;
    ASSERT_EQ(want.region, got.region) << what << " at " << p;
    ASSERT_EQ(want.packets, got.packets) << what << " at " << p;
    ASSERT_TRUE(got.origins.empty()) << what;
  }
}

TEST(BaselineProbeOracleTest, PaperDatasetsMatchTheEagerLoops) {
  const std::vector<workload::Dataset> datasets =
      workload::MakePaperDatasets().value();
  Tally trian_tally, rstar_tally;
  for (const workload::Dataset& ds : datasets) {
    const std::vector<Point> pts = MixedPoints(ds.subdivision, 5000, 17);
    for (int capacity : {64, 256}) {
      const std::string what =
          ds.name + " capacity " + std::to_string(capacity);
      TrianTree::Options kopt;
      kopt.packet_capacity = capacity;
      const TrianTree trian = TrianTree::Build(ds.subdivision, kopt).value();
      ExpectMatchesOracle<TrianTreeProbeOracle>(trian, pts,
                                                what + " trian-tree",
                                                &trian_tally);
      RStarTree::Options ropt;
      ropt.packet_capacity = capacity;
      const RStarTree rstar = RStarTree::Build(ds.subdivision, ropt).value();
      ExpectMatchesOracle<RStarTreeProbeOracle>(rstar, pts,
                                                what + " r*-tree",
                                                &rstar_tally);
    }
  }
  // Far-outside points miss every root triangle, so the trian-tree's
  // fallback runs on every one of them.
  EXPECT_GT(trian_tally.fallbacks, 6 * 5000);
  std::printf("trian-tree fallbacks %lld of %lld, r*-tree %lld of %lld\n",
              static_cast<long long>(trian_tally.fallbacks),
              static_cast<long long>(trian_tally.points),
              static_cast<long long>(rstar_tally.fallbacks),
              static_cast<long long>(rstar_tally.points));
}

TEST(BaselineProbeOracleTest, GapBetweenShapesTakesTheRStarFallback) {
  // Two triangles over [0, 10]^2 whose hypotenuses leave the band
  // 10 < x + y < 10.5 uncovered; the band lies inside both bounding
  // boxes, so every band point meets two candidate shapes, neither of
  // which contains it.
  const std::vector<geom::Polygon> polys = {
      geom::Polygon({{0, 0}, {10, 0}, {0, 10}}),
      geom::Polygon({{10, 0.5}, {10, 10}, {0.5, 10}})};
  const sub::Subdivision sub =
      sub::Subdivision::FromPolygons({0, 0, 10, 10}, polys).value();
  RStarTree::Options ropt;
  ropt.packet_capacity = 64;
  const RStarTree rstar = RStarTree::Build(sub, ropt).value();
  Rng rng(23);
  std::vector<Point> pts;
  for (int i = 0; i < 20000; ++i) {
    const double t = rng.Uniform(0.5, 9.5);
    const double s = rng.Uniform(10.0, 10.5);  // x + y
    pts.push_back({t, s - t});
    pts.push_back({rng.Uniform(0, 10), rng.Uniform(0, 10)});
  }
  Tally tally;
  ExpectMatchesOracle<RStarTreeProbeOracle>(rstar, pts, "gap r*-tree",
                                            &tally);
  EXPECT_GT(tally.fallbacks, 15000);
}

TEST(BaselineProbeOracleTest, EqualDistancesFallBackToTheFirstCandidate) {
  // Two copies of one L-shape: a point in the notch misses both and is
  // exactly as far from each, so only the strict `<` of the fallback
  // decides which copy answers.
  const geom::Polygon ell({{0, 0}, {8, 0}, {8, 2}, {2, 2}, {2, 8}, {0, 8}});
  const sub::Subdivision sub =
      sub::Subdivision::FromPolygons({0, 0, 8, 8}, {ell, ell}).value();
  RStarTree::Options ropt;
  ropt.packet_capacity = 64;
  const RStarTree rstar = RStarTree::Build(sub, ropt).value();
  Rng rng(31);
  std::vector<Point> pts;
  for (int i = 0; i < 2000; ++i) {
    pts.push_back({rng.Uniform(2.5, 8.0), rng.Uniform(2.5, 8.0)});
  }
  Tally tally;
  ExpectMatchesOracle<RStarTreeProbeOracle>(rstar, pts, "twin r*-tree",
                                            &tally);
  EXPECT_EQ(tally.fallbacks, 2000);
}

}  // namespace
}  // namespace dtree::baselines
