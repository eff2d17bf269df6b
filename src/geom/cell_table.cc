#include "geom/cell_table.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "geom/predicates.h"

namespace dtree::geom {

namespace {

/// Number of sign changes, cyclically, in a sequence of edge-direction
/// components; zero components carry no sign and are skipped.
int SignChanges(const double* d, size_t n) {
  int last = 0, first = 0, changes = 0;
  for (size_t k = 0; k < n; ++k) {
    const int s = (d[k] > 0.0) - (d[k] < 0.0);
    if (s == 0) continue;
    if (first == 0) first = s;
    if (last != 0 && s != last) ++changes;
    last = s;
  }
  if (first != 0 && last != first) ++changes;
  return changes;
}

}  // namespace

CellTable::CellTable(const std::vector<Polygon>& cells) {
  size_t total = 0;
  for (const Polygon& c : cells) {
    total += c.NumVertices();
    for (const Point& v : c.ring()) {
      scale_ = std::max({scale_, std::abs(v.x), std::abs(v.y)});
    }
  }
  DTREE_CHECK(total <= std::numeric_limits<uint32_t>::max());
  begin_.reserve(cells.size() + 1);
  xs_.reserve(total);
  ys_.reserve(total);
  nx_.reserve(total);
  ny_.reserve(total);
  convex_.reserve(cells.size());

  const double slack = 0.5 * kCellGuardRel * scale_;
  std::vector<double> dx, dy;  // edge directions of the current cell
  for (const Polygon& c : cells) {
    const size_t first = xs_.size();
    const size_t n = c.NumVertices();
    begin_.push_back(static_cast<uint32_t>(first));
    for (const Point& v : c.ring()) {
      xs_.push_back(v.x);
      ys_.push_back(v.y);
    }
    const double area = c.SignedArea();
    const double orient = area > 0.0 ? 1.0 : -1.0;
    dx.assign(n, 0.0);
    dy.assign(n, 0.0);
    for (size_t k = 0; k < n; ++k) {
      const Point& a = c.ring()[k];
      const Point& b = c.ring()[(k + 1) % n];
      dx[k] = b.x - a.x;
      dy[k] = b.y - a.y;
    }
    for (size_t k = 0; k < n; ++k) {
      // A zero-length edge takes the half-plane of the next edge of
      // nonzero length, which starts at the same point.
      size_t j = k;
      for (size_t step = 0; step < n && dx[j] == 0.0 && dy[j] == 0.0;
           ++step) {
        j = (j + 1) % n;
      }
      const double len = std::hypot(dx[j], dy[j]);
      nx_.push_back(len > 0.0 ? -orient * dy[j] / len : 0.0);
      ny_.push_back(len > 0.0 ? orient * dx[j] / len : 0.0);
    }
    bool convex = n >= 3 && area != 0.0 && SignChanges(dx.data(), n) <= 2 &&
                  SignChanges(dy.data(), n) <= 2;
    for (size_t k = 0; convex && k < n; ++k) {
      for (size_t v = 0; v < n; ++v) {
        const double s = nx_[first + k] * (xs_[first + v] - xs_[first + k]) +
                         ny_[first + k] * (ys_[first + v] - ys_[first + k]);
        if (s < -slack) {
          convex = false;
          break;
        }
      }
    }
    convex_.push_back(convex ? 1 : 0);
  }
  begin_.push_back(static_cast<uint32_t>(xs_.size()));
}

bool CellTable::Contains(int cell, const Point& p) const {
  if (convex_[cell]) {
    const double guard =
        kGeomEps +
        kCellGuardRel * std::max({scale_, std::abs(p.x), std::abs(p.y)});
    bool inside = true;
    for (uint32_t k = begin_[cell]; k < begin_[cell + 1]; ++k) {
      const double s = nx_[k] * (p.x - xs_[k]) + ny_[k] * (p.y - ys_[k]);
      if (s < -guard) return false;
      if (!(s > guard)) inside = false;
    }
    if (inside) return true;
  }
  return ExactContains(cell, p);
}

bool CellTable::ExactContains(int cell, const Point& p) const {
  const size_t first = begin_[cell];
  const size_t n = begin_[cell + 1] - first;
  const double* xs = xs_.data() + first;
  const double* ys = ys_.data() + first;
  if (n < 3) return false;
  if (RingContainsHalfOpen(xs, ys, n, p)) return true;
  for (size_t i = 0; i < n; ++i) {
    const size_t j = (i + 1) % n;
    if (DistanceToSegment({xs[i], ys[i]}, {xs[j], ys[j]}, p) <= kGeomEps) {
      return true;
    }
  }
  return false;
}

}  // namespace dtree::geom
