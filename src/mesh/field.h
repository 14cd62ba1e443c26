// Operations on node fields: the shoreline smoothing the paper applied to
// the coarse ADCIRC output ("we averaged the water surface elevations near
// the shoreline, and then extended the water surface elevation onto the
// shoreline"), plus general helpers.
//
// The smoothing runs as in-place, double-buffered kernels over node lists
// resolved once per mesh (ShorelinePlan): no per-pass allocation once the
// buffers have mesh capacity.
#pragma once

#include <vector>

#include "mesh/coastal_builder.h"
#include "mesh/trimesh.h"

namespace ct::mesh {

/// One pass of neighbor averaging: writes into `out` (first assigned from
/// `in`, reusing its capacity) each node in `affected` replaced by the mean
/// of itself and its mesh neighbors. Averages read `in`, so `out` must be a
/// distinct buffer. Conservative: output values are bounded by input
/// min/max.
void smooth_pass(const TriMesh& mesh, const NodeField& in, NodeField& out,
                 const std::vector<NodeId>& affected);

/// Precomputed shoreline fix-up: the node sets the paper's averaging and
/// extension steps touch, resolved once per mesh instead of per realization.
struct ShorelinePlan {
  /// Nodes inside the smoothing band (|cross-shore offset| <= band).
  std::vector<NodeId> band_nodes;
  /// Onshore nodes (offset > 0) that receive their station's shore value.
  std::vector<NodeId> extend_targets;
  /// The shoreline node whose value each extend target copies.
  std::vector<NodeId> extend_sources;
  int passes = 0;
};

/// Resolves the plan for `band_m` / `passes` (throws when passes < 0).
ShorelinePlan make_shoreline_plan(const CoastalMesh& cm, double band_m,
                                  int passes);

/// The paper's shoreline fix-up on a coarse mesh, in place on `field` (one
/// value per mesh node) with `scratch` as the double buffer. Two steps:
///  1. AVERAGE: `plan.passes` neighbor-averaging passes over the band nodes
///     (|cross-shore offset| <= band), removing the 1.5m-next-to-0m
///     artifacts coarse meshes produce.
///  2. EXTEND: copy each station's shoreline water level onto that
///     station's onshore nodes (offset > 0), i.e. extend the water surface
///     elevation onto the shoreline.
void shoreline_average_and_extend(const CoastalMesh& cm,
                                  const ShorelinePlan& plan, NodeField& field,
                                  NodeField& scratch);

/// Min/max over a field (field must be non-empty).
double field_min(const NodeField& field);
double field_max(const NodeField& field);

/// Per-station shoreline value: `field` sampled at each station's shore
/// node, written into `out` (resized to the station count).
void shoreline_values(const CoastalMesh& cm, const NodeField& field,
                      std::vector<double>& out);

}  // namespace ct::mesh
