#include "geo/grid_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace ct::geo {

GridIndex::GridIndex(const std::vector<Vec2>& points, double cell_size)
    : points_(points), cell_size_(cell_size) {
  if (cell_size <= 0.0) {
    throw std::invalid_argument("GridIndex: cell_size must be positive");
  }
  for (const Vec2 p : points_) bbox_.expand(p);
  if (points_.empty()) {
    bbox_ = BBox{{0, 0}, {0, 0}};
  }
  nx_ = std::max<std::ptrdiff_t>(
      1, static_cast<std::ptrdiff_t>(std::ceil(bbox_.width() / cell_size_)) + 1);
  ny_ = std::max<std::ptrdiff_t>(
      1,
      static_cast<std::ptrdiff_t>(std::ceil(bbox_.height() / cell_size_)) + 1);
  cells_.resize(static_cast<std::size_t>(nx_ * ny_));
  for (std::size_t i = 0; i < points_.size(); ++i) {
    cells_[cell_of(points_[i])].items.push_back(i);
  }
}

void GridIndex::cell_coords(Vec2 p, std::ptrdiff_t& cx,
                            std::ptrdiff_t& cy) const noexcept {
  cx = static_cast<std::ptrdiff_t>(std::floor((p.x - bbox_.lo.x) / cell_size_));
  cy = static_cast<std::ptrdiff_t>(std::floor((p.y - bbox_.lo.y) / cell_size_));
  cx = std::clamp<std::ptrdiff_t>(cx, 0, nx_ - 1);
  cy = std::clamp<std::ptrdiff_t>(cy, 0, ny_ - 1);
}

std::size_t GridIndex::cell_of(Vec2 p) const noexcept {
  std::ptrdiff_t cx = 0;
  std::ptrdiff_t cy = 0;
  cell_coords(p, cx, cy);
  return static_cast<std::size_t>(cy * nx_ + cx);
}

std::size_t GridIndex::nearest(Vec2 query) const noexcept {
  if (points_.empty()) return npos;
  std::ptrdiff_t qx = 0;
  std::ptrdiff_t qy = 0;
  cell_coords(query, qx, qy);

  std::size_t best = npos;
  double best_d2 = std::numeric_limits<double>::infinity();
  const std::ptrdiff_t max_ring = std::max(nx_, ny_);

  for (std::ptrdiff_t ring = 0; ring <= max_ring; ++ring) {
    // Once we hold a candidate, we may stop after the first ring whose inner
    // boundary is farther than the candidate: every unexplored point is at
    // least (ring-1)*cell_size away.
    if (best != npos) {
      const double safe = static_cast<double>(ring - 1) * cell_size_;
      if (safe > 0.0 && safe * safe >= best_d2) break;
    }
    for (std::ptrdiff_t dy = -ring; dy <= ring; ++dy) {
      for (std::ptrdiff_t dx = -ring; dx <= ring; ++dx) {
        if (std::max(std::abs(dx), std::abs(dy)) != ring) continue;  // ring only
        const std::ptrdiff_t cx = qx + dx;
        const std::ptrdiff_t cy = qy + dy;
        if (cx < 0 || cx >= nx_ || cy < 0 || cy >= ny_) continue;
        for (const std::size_t i :
             cells_[static_cast<std::size_t>(cy * nx_ + cx)].items) {
          const double d2 = (points_[i] - query).norm2();
          if (d2 < best_d2) {
            best_d2 = d2;
            best = i;
          }
        }
      }
    }
  }
  return best;
}

}  // namespace ct::geo
