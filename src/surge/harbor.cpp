#include "surge/harbor.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "geo/grid_index.h"
#include "geo/polygon.h"

namespace ct::surge {

namespace {

/// The station `d` positions from `i` along the circular shoreline walk of
/// `n` stations.
std::size_t walk(std::size_t i, int d, std::size_t n) {
  return (i + n + static_cast<std::size_t>(d + static_cast<int>(n))) % n;
}

}  // namespace

std::vector<bool> sheltered_stations(const mesh::CoastalMesh& cm,
                                     const terrain::Terrain& terrain,
                                     const HarborConfig& config) {
  if (config.ray_step_m <= 0.0 || config.ray_length_m <= 0.0) {
    throw std::invalid_argument("sheltered_stations: bad ray parameters");
  }
  const geo::Polygon& coast = terrain.coastline();
  std::vector<bool> out(cm.stations.size(), false);
  for (std::size_t i = 0; i < cm.stations.size(); ++i) {
    const auto& station = cm.stations[i];
    for (double d = config.ray_clearance_m; d <= config.ray_length_m;
         d += config.ray_step_m) {
      const geo::Vec2 probe = station.position + station.outward_normal * d;
      if (coast.contains(probe)) {  // the "seaward" ray hit land: a channel
        out[i] = true;
        break;
      }
    }
  }
  return out;
}

std::vector<std::size_t> harbor_source_map_reference(
    const mesh::CoastalMesh& cm, const std::vector<bool>& sheltered) {
  if (sheltered.size() != cm.stations.size()) {
    throw std::invalid_argument("harbor_source_map: mask size mismatch");
  }
  std::vector<std::size_t> map(cm.stations.size());
  for (std::size_t i = 0; i < cm.stations.size(); ++i) {
    map[i] = i;
    if (!sheltered[i]) continue;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < cm.stations.size(); ++j) {
      if (sheltered[j]) continue;
      const double d =
          geo::distance(cm.stations[i].position, cm.stations[j].position);
      if (d < best) {
        best = d;
        map[i] = j;
      }
    }
  }
  return map;
}

std::vector<std::size_t> harbor_source_map(const mesh::CoastalMesh& cm,
                                           const std::vector<bool>& sheltered) {
  if (sheltered.size() != cm.stations.size()) {
    throw std::invalid_argument("harbor_source_map: mask size mismatch");
  }
  const std::size_t n = cm.stations.size();
  std::vector<std::size_t> map(n);

  // Exposed stations, ascending: the candidate set for every sheltered
  // station. Ascending order means "lowest station index" is the tie-break,
  // exactly what the reference scan's strict `<` yields.
  std::vector<std::size_t> exposed;
  std::vector<geo::Vec2> exposed_pos;
  geo::BBox box;
  for (std::size_t i = 0; i < n; ++i) {
    map[i] = i;
    box.expand(cm.stations[i].position);
    if (!sheltered[i]) {
      exposed.push_back(i);
      exposed_pos.push_back(cm.stations[i].position);
    }
  }
  if (exposed.empty() || exposed.size() == n) return map;

  // No pair of stations is farther apart than the bounding-box diagonal.
  const double max_radius =
      std::sqrt(box.width() * box.width() + box.height() * box.height()) + 1.0;
  const geo::GridIndex index(exposed_pos, 4000.0);

  std::vector<std::size_t> found;
  for (std::size_t i = 0; i < n; ++i) {
    if (!sheltered[i]) continue;
    const geo::Vec2 pos = cm.stations[i].position;

    // Expand until any exposed station falls inside the query radius.
    double radius = 8000.0;
    while (true) {
      index.within(pos, radius, found);
      if (!found.empty() || radius >= max_radius) break;
      radius *= 2.0;
    }
    if (found.empty()) continue;  // unreachable: max_radius covers all pairs

    // The found set bounds the answer from above. Rescan with that bound
    // inflated far past any rounding of geo::distance (relative error
    // ~1e-16 vs a 1e-7 margin) so every station whose ROUNDED distance
    // ties the minimum is guaranteed to be a candidate.
    double bound = std::numeric_limits<double>::infinity();
    for (const std::size_t e : found) {
      bound = std::min(bound, geo::distance(pos, exposed_pos[e]));
    }
    const double rescan = bound * 1.0000001 + 1e-6;
    if (rescan > radius) index.within(pos, rescan, found);

    double best_d = std::numeric_limits<double>::infinity();
    std::size_t best_station = i;
    for (const std::size_t e : found) {
      const double d = geo::distance(pos, exposed_pos[e]);
      const std::size_t station = exposed[e];
      if (d < best_d || (d == best_d && station < best_station)) {
        best_d = d;
        best_station = station;
      }
    }
    map[i] = best_station;
  }
  return map;
}

void alongshore_average(std::vector<double>& shore_wse,
                        const std::vector<bool>& sheltered, int window) {
  std::vector<double> snapshot;
  alongshore_average(shore_wse, sheltered, window, snapshot);
}

void alongshore_average(std::vector<double>& shore_wse,
                        const std::vector<bool>& sheltered, int window,
                        std::vector<double>& snapshot) {
  if (shore_wse.size() != sheltered.size()) {
    throw std::invalid_argument("alongshore_average: size mismatch");
  }
  if (window <= 0) return;
  const std::size_t n = shore_wse.size();
  if (n == 0) return;
  snapshot.assign(shore_wse.begin(), shore_wse.end());
  for (std::size_t i = 0; i < n; ++i) {
    if (sheltered[i]) continue;
    double sum = 0.0;
    int count = 0;
    for (int d = -window; d <= window; ++d) {
      const std::size_t j = walk(i, d, n);
      if (sheltered[j]) continue;
      sum += snapshot[j];
      ++count;
    }
    if (count > 0) shore_wse[i] = sum / count;
  }
}

void mark_station_inputs(std::size_t station,
                         const std::vector<bool>& sheltered,
                         const std::vector<std::size_t>& source_map,
                         int window, std::vector<char>& mask) {
  const std::size_t n = sheltered.size();
  if (station >= n || source_map.size() != n || mask.size() != n) {
    throw std::invalid_argument("mark_station_inputs: size mismatch");
  }
  // The harbor transfer gives a sheltered station amplification times its
  // source's averaged value; an exposed station keeps its own.
  const std::size_t source = sheltered[station] ? source_map[station] : station;
  // Averaging leaves a sheltered station alone and replaces an exposed one
  // by the mean of the exposed stations in its window.
  if (sheltered[source] || window <= 0) {
    mask[source] = 1;
    return;
  }
  for (int d = -window; d <= window; ++d) {
    const std::size_t j = walk(source, d, n);
    if (!sheltered[j]) mask[j] = 1;
  }
}

void apply_harbor_transfer(std::vector<double>& shore_wse,
                           const std::vector<bool>& sheltered,
                           const std::vector<std::size_t>& source_map,
                           double amplification) {
  std::vector<double> snapshot;
  apply_harbor_transfer(shore_wse, sheltered, source_map, amplification,
                        snapshot);
}

void apply_harbor_transfer(std::vector<double>& shore_wse,
                           const std::vector<bool>& sheltered,
                           const std::vector<std::size_t>& source_map,
                           double amplification,
                           std::vector<double>& snapshot) {
  if (shore_wse.size() != sheltered.size() ||
      shore_wse.size() != source_map.size()) {
    throw std::invalid_argument("apply_harbor_transfer: size mismatch");
  }
  // Read from a snapshot so chained sheltered stations do not compound.
  snapshot.assign(shore_wse.begin(), shore_wse.end());
  for (std::size_t i = 0; i < shore_wse.size(); ++i) {
    if (sheltered[i]) {
      shore_wse[i] = amplification * snapshot[source_map[i]];
    }
  }
}

}  // namespace ct::surge
