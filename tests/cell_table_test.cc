// Differential of geom::CellTable::Contains against Polygon::Contains.
//
// The table answers most points from a guard band around each convex
// cell's edges (geom/cell_table.h) and must agree with the polygon test on
// every point, so the points here crowd where the two could disagree: on
// edges and vertices, and at offsets spanning the band (1e-14..1e-3,
// kGeomEps and kGeomEps + δ included). Covered:
//   * 10^7 points per paper dataset, against each point's own cell;
//   * synthetic rings: non-convex L- and comb-shapes, collinear T-junction
//     vertices, a zero-length edge, clockwise input, coordinates around
//     1e6, a convex ring wound twice, dents inside and beyond the
//     convexity slack, and degenerate rings.

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "geom/cell_table.h"
#include "geom/point.h"
#include "geom/polygon.h"
#include "test_util.h"
#include "workload/datasets.h"

#include "gtest/gtest.h"

namespace dtree::geom {
namespace {

/// A point on, near or away from the boundary of `ring`: uniform in the
/// ring's box grown by a tenth (one in five), or on a random edge or
/// vertex, then moved along the edge normal, or in a random direction, by
/// an offset drawn log-uniformly from 1e-14..1e-3 times the ring's scale,
/// or by exactly kGeomEps or kGeomEps + δ (one in eight each).
Point NearBoundaryPoint(const std::vector<Point>& ring, double scale,
                        Rng* rng) {
  BBox box;
  for (const Point& v : ring) box.Extend(v);
  if (rng->UniformInt(0, 4) == 0) {
    const double gx = box.width() / 10, gy = box.height() / 10;
    return {rng->Uniform(box.min_x - gx, box.max_x + gx),
            rng->Uniform(box.min_y - gy, box.max_y + gy)};
  }
  const size_t k = static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(ring.size()) - 1));
  const Point a = ring[k];
  const Point b = ring[(k + 1) % ring.size()];
  const bool at_vertex = rng->UniformInt(0, 3) == 0;
  const Point base = at_vertex ? a : a + (b - a) * rng->Uniform(0.0, 1.0);
  const int64_t kind = rng->UniformInt(0, 7);
  if (kind == 0) return base;
  double off = std::pow(10.0, rng->Uniform(-14.0, -3.0)) * scale;
  if (kind == 1) off = kGeomEps;
  if (kind == 2) off = kGeomEps + kCellGuardRel * scale;
  if (rng->UniformInt(0, 1) == 0) off = -off;
  const Point d = b - a;
  const double len = std::sqrt(Dot(d, d));
  if (at_vertex || len == 0.0) {
    const double t = rng->Uniform(0.0, 6.283185307179586);
    return {base.x + off * std::cos(t), base.y + off * std::sin(t)};
  }
  return {base.x - d.y / len * off, base.y + d.x / len * off};
}

double RingScale(const std::vector<Point>& ring) {
  double s = 1.0;
  for (const Point& v : ring) s = std::max({s, std::abs(v.x), std::abs(v.y)});
  return s;
}

/// Checks `points` near-boundary points of every ring against the table;
/// returns the number of mismatches (each also reported).
int64_t CountMismatches(const std::vector<Polygon>& polys,
                        const CellTable& table, int64_t points,
                        uint64_t seed) {
  Rng rng(seed);
  int64_t mismatches = 0;
  const int n = static_cast<int>(polys.size());
  for (int64_t i = 0; i < points; ++i) {
    const int cell = static_cast<int>(i % n);
    const std::vector<Point>& ring = polys[cell].ring();
    const Point p = NearBoundaryPoint(ring, RingScale(ring), &rng);
    const bool want = polys[cell].Contains(p);
    if (table.Contains(cell, p) != want) {
      if (++mismatches <= 10) {
        ADD_FAILURE() << "cell " << cell << " at (" << std::hexfloat << p.x
                      << ", " << p.y << "): Polygon::Contains " << want;
      }
    }
  }
  return mismatches;
}

class CellTableDatasetTest : public ::testing::TestWithParam<int> {};

TEST_P(CellTableDatasetTest, MatchesPolygonContainsOnTenMillionPoints) {
  const std::vector<workload::Dataset> datasets =
      workload::MakePaperDatasets().value();
  const sub::Subdivision& sub = datasets[GetParam()].subdivision;
  std::vector<Polygon> polys;
  for (int r = 0; r < sub.NumRegions(); ++r) {
    polys.push_back(sub.RegionPolygon(r));
  }
  const CellTable table(polys);
  ASSERT_EQ(table.NumCells(), sub.NumRegions());
  int convex = 0;
  for (int r = 0; r < table.NumCells(); ++r) convex += table.IsConvex(r);
  // Voronoi cells clipped to a rectangle are convex; the fast path must
  // serve nearly all of them or the table buys nothing.
  EXPECT_GE(convex, sub.NumRegions() * 9 / 10);
  std::printf("%s: %d of %d cells convex\n",
              datasets[GetParam()].name.c_str(), convex, sub.NumRegions());
  EXPECT_EQ(CountMismatches(polys, table, 10'000'000, 1000 + GetParam()), 0);
}

INSTANTIATE_TEST_SUITE_P(PaperDatasets, CellTableDatasetTest,
                         ::testing::Values(0, 1, 2));

std::vector<Point> Shift(std::vector<Point> ring, double dx, double dy) {
  for (Point& v : ring) v = {v.x + dx, v.y + dy};
  return ring;
}

TEST(CellTableTest, SyntheticRingsMatchPolygonContains) {
  struct Case {
    std::string name;
    std::vector<Point> ring;
    bool convex;
  };
  // Inward dents of 0.003 and of 280 times the convexity slack at scale
  // 1e3 (5e-8).
  const double kDent = kCellGuardRel;
  const std::vector<Case> cases = {
      {"L-shape", {{0, 0}, {2, 0}, {2, 1}, {1, 1}, {1, 2}, {0, 2}}, false},
      {"comb",
       {{0, 0}, {5, 0}, {5, 3}, {4, 3}, {4, 1}, {3, 1}, {3, 3}, {2, 3},
        {2, 1}, {1, 1}, {1, 3}, {0, 3}},
       false},
      {"T-junctions",
       {{0, 0}, {1, 0}, {2, 0}, {3, 0}, {3, 1.5}, {3, 3}, {1.5, 3}, {0, 3},
        {0, 1}},
       true},
      {"zero-length edge", {{0, 0}, {4, 0}, {4, 0}, {4, 3}, {0, 3}}, true},
      {"clockwise", {{0, 0}, {0, 3}, {2, 4}, {4, 3}, {4, 0}}, true},
      {"near 1e6",
       Shift({{0, 0}, {3, -1}, {6, 0}, {7, 4}, {3, 6}, {-1, 4}}, 1e6, 1e6),
       true},
      {"wound twice",
       {{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0, 0}, {1, 0}, {1, 1}, {0, 1}},
       false},
      {"dent within slack",
       {{0, 0}, {1000, 0}, {1000, 1000}, {500 + kDent, 500 - kDent}},
       true},
      {"dent beyond slack",
       {{0, 0}, {1000, 0}, {1000, 1000}, {500 + 1e-5, 500 - 1e-5}},
       false},
      // Within the slack too, but the dent flips the sign of dy twice, so
      // the sign-change test turns the cell away (safe, only slower).
      {"dent in an axis-parallel edge",
       {{0, 0}, {500, kDent}, {1000, 0}, {1000, 1000}, {0, 1000}},
       false},
      {"sliver", {{0, 0}, {1000, 1e-6}, {0, 2e-6}}, true},
      {"collinear", {{0, 0}, {1, 1}, {2, 2}}, false},
      {"two vertices", {{0, 0}, {1, 1}}, false},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    // One table per ring, so each ring sets its own coordinate scale.
    const std::vector<Polygon> polys = {Polygon(cases[i].ring)};
    const CellTable table(polys);
    EXPECT_EQ(table.IsConvex(0), cases[i].convex) << cases[i].name;
    EXPECT_EQ(CountMismatches(polys, table, 200'000, 7 + i), 0)
        << cases[i].name;
    // Points exactly on vertices and edge midpoints, and a NaN.
    const std::vector<Point>& ring = cases[i].ring;
    for (size_t k = 0; k < ring.size(); ++k) {
      const Point mid = (ring[k] + ring[(k + 1) % ring.size()]) * 0.5;
      for (const Point& p : {ring[k], mid, Point{std::nan(""), 0.0}}) {
        EXPECT_EQ(table.Contains(0, p), polys[0].Contains(p))
            << cases[i].name << " at " << p;
      }
    }
  }
}

TEST(CellTableTest, EmptyTable) {
  const CellTable table(std::vector<Polygon>{});
  EXPECT_EQ(table.NumCells(), 0);
}

}  // namespace
}  // namespace dtree::geom
