// Planar geometric predicates.
//
// The kernel works in double precision; input coordinates are stitched to a
// tolerance grid before the predicates are used for structural decisions
// (see subdivision/stitch.h), which keeps plain floating-point evaluation
// reliable for the data scales this library targets.

#ifndef DTREE_GEOM_PREDICATES_H_
#define DTREE_GEOM_PREDICATES_H_

#include "geom/point.h"

namespace dtree::geom {

/// Sign of the signed area of triangle (a, b, c):
/// +1 when c lies to the left of directed line a->b (counter-clockwise),
/// -1 when to the right, 0 when collinear within tolerance.
int Orient(const Point& a, const Point& b, const Point& c,
           double eps = kGeomEps);

/// Raw twice-signed-area value (positive = CCW).
inline double OrientValue(const Point& a, const Point& b, const Point& c) {
  return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
}

/// True when p lies on the closed segment [a, b] within tolerance.
bool OnSegment(const Point& a, const Point& b, const Point& p,
               double eps = kGeomEps);

/// Euclidean distance from p to the closed segment [a, b].
double DistanceToSegment(const Point& a, const Point& b, const Point& p);

/// True when the open interiors of segments [a,b] and [c,d] intersect
/// (shared endpoints do not count). Used by subdivision validation.
bool SegmentsProperlyIntersect(const Point& a, const Point& b, const Point& c,
                               const Point& d);

/// Does a horizontal ray from p toward +x cross segment [a, b]?
/// Uses the half-open rule (an endpoint exactly at p.y counts only when it
/// is the *lower* endpoint), so crossing counts are consistent for rays
/// passing through shared vertices of a polyline.
bool RayRightCrossesSegment(const Point& p, const Point& a, const Point& b);

/// Does a vertical ray from p toward -y cross segment [a, b]?
/// Half-open rule on x (an endpoint exactly at p.x counts only when it is
/// the *left* endpoint).
bool RayDownCrossesSegment(const Point& p, const Point& a, const Point& b);

/// Crossing counts over `n` independent segments stored structure-of-
/// arrays (segment i is (ax[i], ay[i]) -> (bx[i], by[i])). Exactly
/// equivalent to calling the predicates above per segment, but the
/// branch-light contiguous loop is what the D-tree flat-arena probe engine
/// (DESIGN.md §12) runs per query, so it must stay bit-identical to the
/// scalar forms: same division-based intercept, same strict comparisons.
int CountRayRightCrossings(const double* ax, const double* ay,
                           const double* bx, const double* by, size_t n,
                           const Point& p);
int CountRayDownCrossings(const double* ax, const double* ay,
                          const double* bx, const double* by, size_t n,
                          const Point& p);

}  // namespace dtree::geom

#endif  // DTREE_GEOM_PREDICATES_H_
