#include "surge/mesh_bindings.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "geo/grid_index.h"
#include "geo/polygon.h"
#include "obs/metrics.h"
#include "storm/holland.h"
#include "surge/wse_bound.h"

namespace ct::surge {

namespace {

/// Envelope work tallies: node-steps over in-range storm steps, and those
/// the step bound skipped.
struct EnvelopeMetrics {
  obs::Counter node_steps{"surge.node_steps"};
  obs::Counter node_steps_skipped{"surge.node_steps_skipped"};
};

EnvelopeMetrics& envelope_metrics() {
  static EnvelopeMetrics m;
  return m;
}

/// One in-range storm step, queued for nearest-first evaluation.
struct EnvelopeStep {
  double distance_m = 0.0;  ///< storm center to mesh center
  geo::Vec2 center;
  storm::StormState state;
};

}  // namespace

MeshBindings::MeshBindings(const mesh::CoastalMesh& cm,
                           const geo::EnuProjection& proj,
                           const SurgeConfig& surge,
                           const InundationConfig& inundation,
                           const std::vector<ExposedAsset>& assets,
                           double smoothing_band_m, int smoothing_passes)
    : cm_(cm), surge_(surge), inundation_(inundation) {
  if (inundation_.decay_length_m <= 0.0) {
    throw std::invalid_argument("MeshBindings: decay length must be > 0");
  }
  // Far-skip geometry: the mesh's bounding-box center, and its half-extent
  // plus the considered distance.
  geo::BBox box;
  for (const mesh::Node& node : cm.mesh.nodes()) box.expand(node.position);
  mesh_center_ = box.center();
  mesh_radius_ = std::max(box.width(), box.height()) / 2.0 +
                 surge_.max_considered_distance_m;

  plan_ = mesh::make_shoreline_plan(cm, smoothing_band_m, smoothing_passes);

  // Active set: the full bindings read every station's final shoreline
  // value, so every shore node seeds the reachability walk.
  const std::vector<char> active =
      reachable_nodes(std::vector<char>(cm.stations.size(), 1));
  for (mesh::NodeId n = 0; n < cm.mesh.node_count(); ++n) {
    if (!active[n]) continue;
    const mesh::Node& node = cm.mesh.node(n);
    active_nodes_.push_back(n);
    active_positions_.push_back(node.position);
    active_onshore_.push_back(
        cm.stations[cm.station_of_node[n]].outward_normal * -1.0);
    const double depth = std::max(surge_.min_depth_m, -node.elevation_m);
    active_gdepth_.push_back(kGravity * depth);
  }
  fit_pruning();
  read_stations_.resize(cm.stations.size());
  for (std::size_t s = 0; s < read_stations_.size(); ++s) {
    read_stations_[s] = s;
  }

  std::vector<geo::Vec2> station_positions;
  station_positions.reserve(cm.stations.size());
  for (const auto& station : cm.stations) {
    station_positions.push_back(station.position);
  }
  const geo::GridIndex station_index(station_positions, 4000.0);

  auto index = std::make_shared<AssetIndex>();
  asset_ids_.reserve(assets.size());
  asset_ground_m_.reserve(assets.size());
  stencils_.reserve(assets.size());
  for (std::size_t a = 0; a < assets.size(); ++a) {
    const ExposedAsset& asset = assets[a];
    asset_ids_.push_back(asset.id);
    asset_ground_m_.push_back(asset.ground_elevation_m);
    index->emplace(asset.id, static_cast<std::uint32_t>(a));  // first wins

    AssetStencil s;
    s.enu = proj.to_enu(asset.location);
    s.station = station_index.nearest(s.enu);
    s.station_distance_m = geo::distance(s.enu, cm.stations[s.station].position);
    s.decay = std::exp(-s.station_distance_m / inundation_.decay_length_m);
    s.nearest_node = cm.mesh.nearest_node(s.enu);
    if (const auto bary = cm.mesh.locate(s.enu)) {
      s.inside_mesh = true;
      s.element = bary->element;
      s.stencil_nodes = cm.mesh.element(bary->element).nodes;
      s.stencil_weights = bary->weights;
    }
    stencils_.push_back(s);
  }
  asset_index_ = std::move(index);
}

std::vector<char> MeshBindings::reachable_nodes(
    const std::vector<char>& stations) const {
  // A station's pre-averaging value is its shore node's value AFTER the
  // smoothing passes (the extension step only writes onshore nodes). A
  // node's initial envelope value reaches a shore node only by flowing
  // through smoothing-band nodes, one hop per pass, so everything outside
  // S_passes is write-only for the stations in `stations`.
  std::vector<char> active(cm_.mesh.node_count(), 0);
  std::vector<char> in_band(cm_.mesh.node_count(), 0);
  for (const mesh::NodeId n : plan_.band_nodes) in_band[n] = 1;
  std::vector<mesh::NodeId> frontier;
  for (std::size_t s = 0; s < cm_.shore_nodes.size(); ++s) {
    const mesh::NodeId n = cm_.shore_nodes[s];
    if (stations[s] && !active[n]) {
      active[n] = 1;
      frontier.push_back(n);
    }
  }
  std::vector<mesh::NodeId> next;
  for (int pass = 0; pass < plan_.passes && !frontier.empty(); ++pass) {
    next.clear();
    for (const mesh::NodeId n : frontier) {
      if (!in_band[n]) continue;  // only band nodes are re-averaged
      for (const mesh::NodeId m : cm_.mesh.neighbors(n)) {
        if (!active[m]) {
          active[m] = 1;
          next.push_back(m);
        }
      }
    }
    frontier.swap(next);
  }
  return active;
}

void MeshBindings::fit_pruning() {
  active_extent_ = 0.0;
  onshore_norm_max_ = 0.0;
  prunable_ = true;
  for (std::size_t k = 0; k < active_nodes_.size(); ++k) {
    active_extent_ = std::max(
        active_extent_, geo::distance(active_positions_[k], mesh_center_));
    onshore_norm_max_ =
        std::max(onshore_norm_max_, active_onshore_[k].norm());
    if (!(active_gdepth_[k] > 0.0) || !std::isfinite(active_gdepth_[k])) {
      prunable_ = false;
    }
  }
  // Triangle-inequality slack: a node's kernel distance can exceed
  // |center - mesh_center| + |node - mesh_center| only by rounding.
  active_extent_ *= 1.0 + StepWseBound::kRelativeSlack;
  if (!std::isfinite(active_extent_) || !std::isfinite(onshore_norm_max_)) {
    prunable_ = false;
  }
}

MeshBindings MeshBindings::scoped(const std::vector<std::size_t>& assets,
                                  const std::vector<char>& stations) const {
  if (stations.size() != cm_.stations.size()) {
    throw std::invalid_argument("MeshBindings::scoped: station mask size");
  }
  MeshBindings out(*this);
  // The walk from a subset of the shore nodes reaches a subset of this
  // object's active set, so filtering keeps every array in node order.
  const std::vector<char> active = reachable_nodes(stations);
  std::size_t kept = 0;
  for (std::size_t k = 0; k < active_nodes_.size(); ++k) {
    if (!active[active_nodes_[k]]) continue;
    out.active_nodes_[kept] = active_nodes_[k];
    out.active_positions_[kept] = active_positions_[k];
    out.active_onshore_[kept] = active_onshore_[k];
    out.active_gdepth_[kept] = active_gdepth_[k];
    ++kept;
  }
  out.active_nodes_.resize(kept);
  out.active_positions_.resize(kept);
  out.active_onshore_.resize(kept);
  out.active_gdepth_.resize(kept);
  out.fit_pruning();

  auto index = std::make_shared<AssetIndex>();
  out.asset_ids_.clear();
  out.asset_ground_m_.clear();
  out.stencils_.clear();
  out.read_stations_.clear();
  for (const std::size_t a : assets) {
    index->emplace(asset_ids_.at(a),
                   static_cast<std::uint32_t>(out.asset_ids_.size()));
    out.asset_ids_.push_back(asset_ids_[a]);
    out.asset_ground_m_.push_back(asset_ground_m_[a]);
    out.stencils_.push_back(stencils_[a]);
    out.read_stations_.push_back(stencils_[a].station);
  }
  out.asset_index_ = std::move(index);
  std::sort(out.read_stations_.begin(), out.read_stations_.end());
  out.read_stations_.erase(
      std::unique(out.read_stations_.begin(), out.read_stations_.end()),
      out.read_stations_.end());
  return out;
}

void MeshBindings::accumulate_envelope(const storm::StormTrack& track,
                                       const geo::EnuProjection& proj,
                                       mesh::NodeField& envelope) const {
  envelope.assign(cm_.mesh.node_count(), 0.0);
  const std::size_t active_count = active_nodes_.size();
  // Per-realization constants, folded once: (exponent - 1.0) feeds pow
  // unchanged, and rho*g is the product the inverse-barometer term divides
  // by. The envelope goldens in tests/fastpath_test.cpp pin this operation
  // sequence bit-for-bit.
  const double exponent_m1 = surge_.wind_setup_exponent - 1.0;
  const double rho_g = kWaterDensity * kGravity;

  // In-range steps, nearest first. env starts at +0 and std::max replaces
  // it only when env < wse, so it ends as +0 or the largest WSE (unique in
  // bits) and never takes a NaN: the step order cannot change it. The
  // early high envelope lets the far steps prune more.
  thread_local std::vector<EnvelopeStep> steps;
  steps.clear();
  for (double t = track.start_time(); t <= track.end_time();
       t += surge_.dt_s) {
    const storm::StormState state = track.state_at(t, proj);
    const geo::Vec2 center = proj.to_enu(state.center);
    const double distance = geo::distance(center, mesh_center_);
    // Far steps are skipped. A NaN center makes every WSE of the step NaN,
    // which max drops, so skipping it is exact and keeps the sort key well
    // ordered.
    if (!(distance <= mesh_radius_)) continue;
    steps.push_back({distance, center, state});
  }
  std::stable_sort(steps.begin(), steps.end(),
                   [](const EnvelopeStep& a, const EnvelopeStep& b) {
                     return a.distance_m < b.distance_m;
                   });

  std::uint64_t skipped = 0;
  for (const EnvelopeStep& step : steps) {
    const storm::StormStepKernel kernel(surge_.wind_options, step.state.vortex,
                                        step.center,
                                        step.state.translation_ms);
    const double ambient_pa = step.state.vortex.ambient_pressure_pa;
    StepWseBound bound(
        surge_, kernel, ambient_pa, step.distance_m - active_extent_,
        (step.distance_m + active_extent_) *
            (1.0 + StepWseBound::kRelativeSlack),
        onshore_norm_max_);
    const bool prune = prunable_ && bound.enabled();
    for (std::size_t k = 0; k < active_count; ++k) {
      double& env = envelope[active_nodes_[k]];
      if (prune &&
          bound.at(active_positions_[k] - step.center, active_gdepth_[k],
                   active_onshore_[k]) <= env) {
        ++skipped;  // wse <= bound <= env: max(env, wse) == env
        continue;
      }
      const storm::WindSample w = kernel.sample(active_positions_[k]);
      const double u_on =
          std::max(0.0, w.velocity_ms.dot(active_onshore_[k]));
      const double eta_wind = surge_.wind_setup_scale_m * u_on *
                              std::pow(w.speed_ms, exponent_m1) /
                              active_gdepth_[k];
      const double eta_pressure =
          std::max(0.0, ambient_pa - w.pressure_pa) / rho_g;
      const double eta_wave = surge_.wave_setup_per_ms * u_on;
      const double wse = eta_wind + eta_pressure + eta_wave;
      env = std::max(env, wse);
    }
  }

  EnvelopeMetrics& metrics = envelope_metrics();
  metrics.node_steps.inc(steps.size() * active_count);
  metrics.node_steps_skipped.inc(skipped);
}

void MeshBindings::impacts_into(const std::vector<double>& shoreline_wse,
                                std::vector<AssetImpact>& out) const {
  if (shoreline_wse.size() != cm_.stations.size()) {
    throw std::invalid_argument("MeshBindings: WSE/station size mismatch");
  }
  out.clear();
  out.reserve(asset_ids_.size());
  for (std::size_t a = 0; a < asset_ids_.size(); ++a) {
    const AssetStencil& s = stencils_[a];
    AssetImpact impact;
    impact.asset_id = asset_ids_[a];
    impact.shoreline_station = s.station;
    impact.shoreline_wse_m = shoreline_wse[s.station];
    impact.water_level_m = impact.shoreline_wse_m * s.decay;
    impact.inundation_depth_m =
        std::max(0.0, impact.water_level_m - asset_ground_m_[a]);
    impact.failed = impact.inundation_depth_m > inundation_.failure_threshold_m;
    out.push_back(std::move(impact));
  }
}

double MeshBindings::interpolate_at(const mesh::NodeField& field,
                                    std::size_t asset) const {
  if (field.size() != cm_.mesh.node_count()) {
    throw std::invalid_argument("MeshBindings::interpolate_at: size mismatch");
  }
  const AssetStencil& s = stencils_.at(asset);
  if (s.inside_mesh) {
    double v = 0.0;
    for (int i = 0; i < 3; ++i) {
      v += s.stencil_weights[i] * field[s.stencil_nodes[i]];
    }
    return v;
  }
  return field[s.nearest_node];
}

void MeshBindings::digest_into(util::Digest& d) const {
  d.str("ct-mesh-bindings");
  d.f64(mesh_center_.x).f64(mesh_center_.y).f64(mesh_radius_);
  d.u64(plan_.band_nodes.size())
      .u64(plan_.extend_targets.size())
      .i64(plan_.passes);
  d.u64(active_nodes_.size());
  for (std::size_t k = 0; k < active_nodes_.size(); ++k) {
    d.u64(active_nodes_[k])
        .f64(active_positions_[k].x)
        .f64(active_positions_[k].y)
        .f64(active_onshore_[k].x)
        .f64(active_onshore_[k].y)
        .f64(active_gdepth_[k]);
  }
  d.u64(stencils_.size());
  for (const AssetStencil& s : stencils_) {
    d.u64(s.station)
        .f64(s.station_distance_m)
        .f64(s.decay)
        .u64(s.nearest_node)
        .boolean(s.inside_mesh);
    for (int i = 0; i < 3; ++i) {
      d.u64(s.stencil_nodes[i]).f64(s.stencil_weights[i]);
    }
  }
}

}  // namespace ct::surge
