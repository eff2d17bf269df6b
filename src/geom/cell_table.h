// Flat point-in-cell table: Polygon::Contains for a fixed set of rings,
// answered without a square root for points clear of a convex cell's
// border.
//
// Built once from a set of rings (the cells of a subdivision, the shape
// layer of an R*-tree). Contains(i, p) returns exactly what
// Polygon(ring_i).Contains(p) returns, bit for bit, for every ring and
// every point:
//   * For a cell flagged convex, every edge's signed distance s to p is
//     computed against the edge's unit inward normal. If every s is
//     > kGeomEps + δ, p is inside and off the boundary: true. If any s is
//     < -(kGeomEps + δ), p is outside and off the boundary: false.
//   * Otherwise, and for every cell not flagged convex, the exact path
//     runs Polygon::Contains's own code over the same vertices: the same
//     edges in the same order through the same predicates.
//
// The guard δ and why the fast answers are exact. Let u = 2^-53 and
// S = max(1, |every cell coordinate|, |p.x|, |p.y|). Then, in plain
// double arithmetic (no fused multiply-add is needed or assumed):
//   * the computed normal is within 6u of the exact unit normal, and the
//     computed s = nx * (p.x - x_k) + ny * (p.y - y_k) is within 32uS of
//     p's exact signed distance to the edge's line;
//   * DistanceToSegment is within 32uS of the exact distance;
//   * RayRightCrossesSegment's intercept x is within 12uS of the exact
//     intercept (its y comparisons are exact), so its verdict is exact
//     whenever p lies farther than 12uS from the segment.
// δ = kCellGuardRel * S = 1e-10 * S, which is 1e-7 over the paper's
// [0, 1000]^2 area. 64uS = 7.1e-15 * S, so δ is 1.4e4 times the largest
// rounding error above, at every coordinate scale (δ scales with S, so no
// largest coordinate limits the bound). Hence:
//   * Inside answer: every exact distance to an edge line is
//     > kGeomEps + 0.99δ. No OnBoundary distance can round to <= kGeomEps,
//     every ray verdict is exact, and p lies strictly left of every
//     (counter-clockwise) edge, so its winding number equals the ring's
//     turning number, 1 for a convex-flagged cell. The parity is odd.
//   * Outside answer: p lies > kGeomEps + 0.99δ beyond one edge line,
//     while no vertex lies more than 0.51δ beyond it (the convexity slack
//     below), so p is > kGeomEps + 0.48δ from the hull of the ring. No
//     distance rounds to <= kGeomEps, every ray verdict is exact, and the
//     winding number outside the hull is 0. The parity is even.
//
// A cell is flagged convex when its signed area is nonzero, no vertex
// lies more than 0.5 * kCellGuardRel * S (S over the cells) beyond any
// edge's line, and the edge directions change sign at most twice in x and
// twice in y around the ring (turning number ±1, which rules out a convex
// ring wound twice). Clockwise rings are oriented by their signed area.
// Collinear vertices (T-junctions) pass. A dent deeper than the slack, or
// a reflex turn that flips the sign of an edge direction's component,
// sends the cell down the exact path, which is always correct. All 2,287
// cells of the three paper datasets are flagged convex.
// Zero-length edges add no half-plane: each repeats the half-plane of
// the next edge of nonzero length.

#ifndef DTREE_GEOM_CELL_TABLE_H_
#define DTREE_GEOM_CELL_TABLE_H_

#include <cstdint>
#include <vector>

#include "geom/point.h"
#include "geom/polygon.h"

namespace dtree::geom {

/// Guard band of CellTable's fast path, relative to the coordinate scale
/// (see the error bound above).
inline constexpr double kCellGuardRel = 1e-10;

class CellTable {
 public:
  CellTable() = default;
  /// Copies every ring into exactly sized arrays; cell i is cells[i].
  explicit CellTable(const std::vector<Polygon>& cells);

  int NumCells() const { return static_cast<int>(convex_.size()); }
  bool IsConvex(int cell) const { return convex_[cell] != 0; }

  /// Equals Polygon(ring of `cell`).Contains(p) for every p.
  bool Contains(int cell, const Point& p) const;

 private:
  /// Polygon::Contains over the cell's ring: crossing parity, then the
  /// boundary pass when the parity is even.
  bool ExactContains(int cell, const Point& p) const;

  /// Cell i owns vertices and edges [begin_[i], begin_[i + 1]); edge k
  /// runs from vertex k to the next vertex of the ring.
  std::vector<uint32_t> begin_;
  std::vector<double> xs_, ys_;
  /// Unit inward normal of edge k.
  std::vector<double> nx_, ny_;
  std::vector<uint8_t> convex_;
  /// max(1, |every coordinate|): the S of the error bound, less p.
  double scale_ = 1.0;
};

}  // namespace dtree::geom

#endif  // DTREE_GEOM_CELL_TABLE_H_
