#include "geom/polygon.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/check.h"
#include "geom/predicates.h"

namespace dtree::geom {

double Polygon::SignedArea() const {
  if (ring_.size() < 3) return 0.0;
  double s = 0.0;
  for (size_t i = 0; i < ring_.size(); ++i) {
    const Point& a = ring_[i];
    const Point& b = ring_[(i + 1) % ring_.size()];
    s += Cross(a, b);
  }
  return s / 2.0;
}

double Polygon::Area() const { return std::abs(SignedArea()); }

Point Polygon::Centroid() const {
  if (ring_.empty()) return {};
  const double a = SignedArea();
  if (std::abs(a) < kGeomEps) {
    // Degenerate: fall back to the vertex average.
    Point c;
    for (const Point& p : ring_) c = c + p;
    return c * (1.0 / static_cast<double>(ring_.size()));
  }
  double cx = 0.0, cy = 0.0;
  for (size_t i = 0; i < ring_.size(); ++i) {
    const Point& p = ring_[i];
    const Point& q = ring_[(i + 1) % ring_.size()];
    const double w = Cross(p, q);
    cx += (p.x + q.x) * w;
    cy += (p.y + q.y) * w;
  }
  return {cx / (6.0 * a), cy / (6.0 * a)};
}

BBox Polygon::Bounds() const {
  BBox b;
  for (const Point& p : ring_) b.Extend(p);
  return b;
}

void Polygon::EnsureCCW() {
  if (!ring_.empty() && SignedArea() < 0.0) {
    std::reverse(ring_.begin(), ring_.end());
  }
}

bool Polygon::Contains(const Point& p) const {
  if (ring_.size() < 3) return false;
  // OnBoundary || odd parity, in the cheaper order: the boundary pass
  // takes a square root per edge and is only needed when the parity is
  // even.
  return ContainsHalfOpen(p) || OnBoundary(p);
}

bool Polygon::ContainsHalfOpen(const Point& p) const {
  if (ring_.size() < 3) return false;
  int crossings = 0;
  for (size_t i = 0; i < ring_.size(); ++i) {
    Point a, b;
    Edge(i, &a, &b);
    if (RayRightCrossesSegment(p, a, b)) ++crossings;
  }
  return (crossings % 2) == 1;
}

bool Polygon::OnBoundary(const Point& p, double eps) const {
  for (size_t i = 0; i < ring_.size(); ++i) {
    Point a, b;
    Edge(i, &a, &b);
    if (DistanceToSegment(a, b, p) <= eps) return true;
  }
  return false;
}

double Polygon::DistanceToBoundary(const Point& p) const {
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < ring_.size(); ++i) {
    Point a, b;
    Edge(i, &a, &b);
    best = std::min(best, DistanceToSegment(a, b, p));
  }
  return best;
}

bool RingContainsHalfOpen(const double* xs, const double* ys, size_t n,
                          const Point& p) {
  if (n < 3) return false;
  int crossings = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t j = (i + 1) % n;
    if (RayRightCrossesSegment(p, {xs[i], ys[i]}, {xs[j], ys[j]})) {
      ++crossings;
    }
  }
  return (crossings % 2) == 1;
}

bool Polygon::IsSimple() const {
  const size_t n = ring_.size();
  if (n < 3) return false;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (NearlyEqual(ring_[i], ring_[j], kGeomEps)) return false;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    Point a, b;
    Edge(i, &a, &b);
    for (size_t j = i + 1; j < n; ++j) {
      // Skip adjacent edges (they legitimately share a vertex).
      if (j == i || (j + 1) % n == i || (i + 1) % n == j) continue;
      Point c, d;
      Edge(j, &c, &d);
      if (SegmentsProperlyIntersect(a, b, c, d)) return false;
    }
  }
  return true;
}

bool Polygon::IsConvex() const {
  const size_t n = ring_.size();
  if (n < 3) return false;
  int sign = 0;
  for (size_t i = 0; i < n; ++i) {
    const int o =
        Orient(ring_[i], ring_[(i + 1) % n], ring_[(i + 2) % n]);
    if (o == 0) continue;
    if (sign == 0) {
      sign = o;
    } else if (o != sign) {
      return false;
    }
  }
  return true;
}

bool Polygon::InteriorPoint(Point* out) const {
  if (ring_.size() < 3 || Area() < kGeomEps) return false;
  if (IsConvex()) {
    *out = Centroid();
    return true;
  }
  // Scanline at a y strictly between two distinct vertex levels: collect
  // edge crossings, and take the midpoint of the first in/out pair.
  std::set<double> ys;
  for (const Point& p : ring_) ys.insert(p.y);
  DTREE_CHECK(ys.size() >= 2);
  // Pick the widest gap between consecutive vertex levels for stability.
  double best_lo = 0.0, best_gap = -1.0;
  for (auto it = ys.begin(); std::next(it) != ys.end(); ++it) {
    const double gap = *std::next(it) - *it;
    if (gap > best_gap) {
      best_gap = gap;
      best_lo = *it;
    }
  }
  const double scan_y = best_lo + best_gap / 2.0;
  std::vector<double> xs;
  for (size_t i = 0; i < ring_.size(); ++i) {
    Point a, b;
    Edge(i, &a, &b);
    if ((a.y > scan_y) == (b.y > scan_y)) continue;
    const double t = (scan_y - a.y) / (b.y - a.y);
    xs.push_back(a.x + t * (b.x - a.x));
  }
  if (xs.size() < 2) return false;
  std::sort(xs.begin(), xs.end());
  *out = {(xs[0] + xs[1]) / 2.0, scan_y};
  return true;
}

Polygon ClipHalfPlane(const Polygon& poly, double a, double b, double c) {
  const size_t n = poly.NumVertices();
  if (n < 3) return Polygon();
  // Normalize so `side` is a signed distance; keeps tolerances meaningful.
  const double norm = std::hypot(a, b);
  if (norm < kGeomEps) return poly;  // Degenerate line: no constraint.
  a /= norm;
  b /= norm;
  c /= norm;
  constexpr double kOnLine = 1e-12;

  auto side = [&](const Point& p) { return a * p.x + b * p.y + c; };

  std::vector<Point> out;
  out.reserve(n + 2);
  for (size_t i = 0; i < n; ++i) {
    const Point& cur = poly.ring()[i];
    const Point& nxt = poly.ring()[(i + 1) % n];
    const double sc = side(cur);
    const double sn = side(nxt);
    const bool cur_in = sc <= kOnLine;
    const bool nxt_in = sn <= kOnLine;
    if (cur_in) out.push_back(cur);
    if (cur_in != nxt_in) {
      const double t = sc / (sc - sn);
      out.push_back({cur.x + t * (nxt.x - cur.x), cur.y + t * (nxt.y - cur.y)});
    }
  }
  // Drop consecutive duplicates introduced by near-on-line vertices.
  std::vector<Point> dedup;
  dedup.reserve(out.size());
  for (const Point& p : out) {
    if (dedup.empty() || !NearlyEqual(dedup.back(), p, kGeomEps)) {
      dedup.push_back(p);
    }
  }
  while (dedup.size() > 1 && NearlyEqual(dedup.front(), dedup.back(), kGeomEps)) {
    dedup.pop_back();
  }
  if (dedup.size() < 3) return Polygon();
  return Polygon(std::move(dedup));
}

namespace {

double ClippedAbsArea(const Polygon& poly, double a1, double b1, double c1,
                      double a2, double b2, double c2) {
  // Two successive Sutherland-Hodgman passes. For non-convex subjects the
  // output ring may contain zero-width bridges along the clip lines, but
  // its signed area still equals the true intersection area, which is all
  // this helper is used for.
  Polygon p1 = ClipHalfPlane(poly, a1, b1, c1);
  if (p1.empty()) return 0.0;
  Polygon p2 = ClipHalfPlane(p1, a2, b2, c2);
  return p2.Area();
}

}  // namespace

double AreaInVerticalBand(const Polygon& poly, double lo, double hi) {
  if (hi <= lo) return 0.0;
  // x >= lo  <=>  -x + lo <= 0 ; x <= hi  <=>  x - hi <= 0.
  return ClippedAbsArea(poly, -1.0, 0.0, lo, 1.0, 0.0, -hi);
}

double AreaInHorizontalBand(const Polygon& poly, double lo, double hi) {
  if (hi <= lo) return 0.0;
  return ClippedAbsArea(poly, 0.0, -1.0, lo, 0.0, 1.0, -hi);
}

}  // namespace dtree::geom
