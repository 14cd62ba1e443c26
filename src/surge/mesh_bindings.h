// Per-(terrain, mesh config) precompute for the realization hot path.
//
// Every one of the 1000 realizations used to re-derive the same facts from
// the mesh: which nodes can ever influence the values the engine reports,
// each node's onshore direction and depth floor, which station/triangle
// each asset binds to, and the inland decay factor. MeshBindings freezes
// all of that once per RealizationEngine (shared read-only across
// realizations and threads) and exposes allocation-free kernels over the
// frozen arrays.
//
// Equivalence contract: every kernel here is BIT-IDENTICAL to the legacy
// path it replaces for all values the bindings' consumers read. Those are
// the final shoreline values of the read stations (every station for an
// engine's full bindings; the assets' stencil stations for scoped ones).
// A station's final value reads the pre-averaging values of its harbor
// source's alongshore window, and each of those reads the envelope of the
// nodes within `passes` smoothing hops of the station's shore node (the
// extension step overwrites onshore nodes). `accumulate_envelope`
// evaluates exactly those active nodes with the same IEEE-754 operation
// sequence the reference SurgeSolver uses and leaves the rest at 0. Within
// a call it visits storm steps nearest-first and skips node-steps whose
// radial upper bound (surge/wse_bound.h) cannot raise the running maximum;
// both leave every written value unchanged. See DESIGN.md §10 for the full
// argument.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "geo/geopoint.h"
#include "geo/vec2.h"
#include "mesh/coastal_builder.h"
#include "mesh/field.h"
#include "storm/track.h"
#include "surge/inundation.h"
#include "surge/surge_model.h"
#include "util/digest.h"

namespace ct::surge {

/// Frozen binding of one asset to the mesh and shoreline.
struct AssetStencil {
  /// Shoreline station the asset draws water from (same index the
  /// InundationMapper's nearest-station query returns).
  std::size_t station = 0;
  double station_distance_m = 0.0;
  /// Precomputed inland decay exp(-distance / decay_length) — the exact
  /// factor the legacy impact() computes per realization.
  double decay = 1.0;
  /// Asset position in the ENU frame.
  geo::Vec2 enu;
  /// Nearest mesh node (interpolation fallback outside the band).
  mesh::NodeId nearest_node = 0;
  /// Barycentric stencil when the asset lies inside the meshed band.
  bool inside_mesh = false;
  mesh::ElementId element = 0;
  std::array<mesh::NodeId, 3> stencil_nodes{};
  std::array<double, 3> stencil_weights{};
};

/// Asset id -> position in the engine's asset list (first occurrence wins
/// for duplicate ids, matching the legacy linear scan).
using AssetIndex = std::unordered_map<std::string, std::uint32_t>;

class MeshBindings {
 public:
  /// Builds the precompute over every shoreline station. `cm` must outlive
  /// the bindings (the RealizationEngine shares it with them).
  MeshBindings(const mesh::CoastalMesh& cm, const geo::EnuProjection& proj,
               const SurgeConfig& surge, const InundationMapper& mapper,
               const std::vector<ExposedAsset>& assets,
               double smoothing_band_m, int smoothing_passes);

  /// These bindings cut down to `assets` (ascending positions in this
  /// object's asset list) and to the active nodes that can move the
  /// pre-averaging value of a station marked in `stations` (one entry per
  /// station; see mark_station_inputs). The result reads only the stencil
  /// stations of `assets`. Derived by filtering this object's arrays: it
  /// shares the mesh, and every value it computes for those stations is
  /// bit-identical to this object's.
  MeshBindings scoped(const std::vector<std::size_t>& assets,
                      const std::vector<char>& stations) const;

  /// Writes the MEOW envelope of `track` into `envelope` (resized to the
  /// node count; non-active nodes stay 0). Bit-equal on every consumed
  /// node to SurgeSolver::max_envelope with the same config. Thread-safe:
  /// const over frozen arrays, all mutation goes to `envelope` and a
  /// thread-local step buffer. Adds the call's node-step tallies to the
  /// `surge.node_steps` and `surge.node_steps_skipped` counters.
  void accumulate_envelope(const storm::StormTrack& track,
                           const geo::EnuProjection& proj,
                           mesh::NodeField& envelope) const;

  /// Per-asset impacts from the smoothed shoreline WSE, written into `out`
  /// (cleared first). Bit-equal to InundationMapper::impacts.
  void impacts_into(const std::vector<double>& shoreline_wse,
                    std::vector<AssetImpact>& out) const;

  /// Samples a node field at asset `asset` via the frozen barycentric
  /// stencil; bit-equal to TriMesh::interpolate at the asset position.
  double interpolate_at(const mesh::NodeField& field, std::size_t asset) const;

  const mesh::ShorelinePlan& shoreline_plan() const noexcept { return plan_; }
  /// Nodes whose envelope values can reach a read station (ascending).
  const std::vector<mesh::NodeId>& active_nodes() const noexcept {
    return active_nodes_;
  }
  /// Stations whose final shoreline values the bindings' outputs read
  /// (ascending): every station, or the stencil stations when scoped.
  const std::vector<std::size_t>& read_stations() const noexcept {
    return read_stations_;
  }
  const std::vector<AssetStencil>& stencils() const noexcept {
    return stencils_;
  }
  /// Shared id->index map handed to every realization for O(1) lookups.
  const std::shared_ptr<const AssetIndex>& asset_index() const noexcept {
    return asset_index_;
  }

  /// Folds the frozen content into a digest. Mixed into the engine-batch
  /// cache key so any terrain- or mesh-derived change to the precompute
  /// (stations, depths, stencils, smoothing plan) invalidates disk caches.
  void digest_into(util::Digest& d) const;

 private:
  /// Nodes whose envelope can reach the shore node of a station marked in
  /// `stations`: S_0 = those shore nodes, S_k = S_{k-1} union
  /// neighbors(S_{k-1} intersect band), k up to the smoothing passes.
  std::vector<char> reachable_nodes(const std::vector<char>& stations) const;
  /// Refits the pruning geometry to the current active arrays.
  void fit_pruning();

  const mesh::CoastalMesh& cm_;
  SurgeConfig surge_;
  InundationConfig inundation_;

  // Far-skip geometry, identical to SurgeSolver::max_envelope.
  geo::Vec2 mesh_center_;
  double mesh_radius_ = 0.0;

  // Pruning geometry: every active node lies within active_extent_ of
  // mesh_center_; |onshore| is at most onshore_norm_max_. prunable_ is
  // false when a node's depth term or direction is unusable for the bound.
  double active_extent_ = 0.0;
  double onshore_norm_max_ = 0.0;
  bool prunable_ = false;

  mesh::ShorelinePlan plan_;

  // Structure-of-arrays over the active node set.
  std::vector<mesh::NodeId> active_nodes_;
  std::vector<geo::Vec2> active_positions_;
  std::vector<geo::Vec2> active_onshore_;  ///< -outward_normal of the station
  std::vector<double> active_gdepth_;      ///< kGravity * floored depth
  std::vector<std::size_t> read_stations_;

  std::vector<std::string> asset_ids_;
  std::vector<double> asset_ground_m_;
  std::vector<AssetStencil> stencils_;
  std::shared_ptr<const AssetIndex> asset_index_;
};

}  // namespace ct::surge
