// Uniform-grid spatial index over planar points. The mesh uses it for
// nearest-node queries (asset -> mesh node lookup happens for every asset in
// every one of the 1000 realizations, so brute force would dominate).
#pragma once

#include <cstddef>
#include <vector>

#include "geo/polygon.h"
#include "geo/vec2.h"

namespace ct::geo {

/// Index over a fixed point set. Points are bucketed into square cells of
/// `cell_size` meters; queries expand outward ring by ring, which is exact
/// for nearest-neighbor (a candidate is accepted only once the searched
/// radius covers its distance).
class GridIndex {
 public:
  /// Builds the index. `cell_size` must be positive; the box is derived
  /// from the points.
  GridIndex(const std::vector<Vec2>& points, double cell_size);

  /// Index of the nearest point, or npos when the set is empty.
  std::size_t nearest(Vec2 query) const noexcept;

  std::size_t size() const noexcept { return points_.size(); }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  struct Cell {
    std::vector<std::size_t> items;
  };

  std::size_t cell_of(Vec2 p) const noexcept;
  void cell_coords(Vec2 p, std::ptrdiff_t& cx, std::ptrdiff_t& cy) const noexcept;

  std::vector<Vec2> points_;
  double cell_size_;
  BBox bbox_;
  std::ptrdiff_t nx_ = 0;
  std::ptrdiff_t ny_ = 0;
  std::vector<Cell> cells_;
};

}  // namespace ct::geo
