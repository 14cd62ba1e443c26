#include "surge/realization.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/error.h"
#include "util/log.h"
#include "util/rng.h"

namespace ct::surge {

const AssetImpact* HurricaneRealization::find_impact(
    const std::string& id) const {
  if (asset_index) {
    const auto it = asset_index->find(id);
    if (it != asset_index->end()) {
      const std::size_t pos = it->second;
      // Verify before trusting: user code may hold a filtered/reordered
      // impacts vector next to the engine's index. Fall through to the
      // scan on any mismatch.
      if (pos < impacts.size() && impacts[pos].asset_id == id) {
        return &impacts[pos];
      }
    } else if (impacts.size() == asset_index->size()) {
      // The index covers every engine asset, so with the impacts list still
      // matching it the id is not one the engine computed.
      throw util::Error(util::ErrorCode::kInvalidInput, "surge",
                        "no asset '" + id + "' in the engine's asset list");
    }
  }
  for (const AssetImpact& impact : impacts) {
    if (impact.asset_id == id) return &impact;
  }
  return nullptr;
}

bool HurricaneRealization::asset_failed(const std::string& id) const {
  const AssetImpact* impact = find_impact(id);
  return impact != nullptr && impact->failed;
}

double HurricaneRealization::asset_depth(const std::string& id) const {
  const AssetImpact* impact = find_impact(id);
  return impact != nullptr ? impact->inundation_depth_m : 0.0;
}

bool HurricaneRealization::asset_wind_failed(const std::string& id) const {
  const AssetImpact* impact = find_impact(id);
  return impact != nullptr && impact->wind_failed;
}

std::size_t HurricaneRealization::wind_damage_count() const {
  std::size_t count = 0;
  for (const AssetImpact& impact : impacts) {
    if (impact.wind_failed) ++count;
  }
  return count;
}

namespace {
const terrain::Terrain& require_terrain(
    const std::shared_ptr<const terrain::Terrain>& terrain) {
  if (!terrain) throw std::invalid_argument("RealizationEngine: null terrain");
  return *terrain;
}

/// Maximum of `values` at `positions` (ascending) with a fused finiteness
/// check. A plain max_element can silently SKIP a NaN (NaN comparisons are
/// false both ways), so the guard must ride the same scan. Bit-identical to
/// max_element on finite data when `positions` covers every value. Returns
/// 0 for an empty set.
double guarded_max(const std::vector<double>& values,
                   const std::vector<std::size_t>& positions,
                   std::uint64_t index, std::uint64_t base_seed) {
  double max = 0.0;
  bool first = true;
  for (const std::size_t p : positions) {
    const double v = values[p];
    if (!std::isfinite(v)) {
      throw util::Error(util::ErrorCode::kNumeric, "surge",
                        "non-finite shoreline WSE", index, base_seed);
    }
    if (first || v > max) {
      max = v;
      first = false;
    }
  }
  return max;
}
}  // namespace

void validate_realization(const HurricaneRealization& realization,
                          std::uint64_t base_seed) {
  const auto fail = [&](const char* what) {
    throw util::Error(util::ErrorCode::kNumeric, "surge", what,
                      realization.index, base_seed);
  };
  if (!std::isfinite(realization.peak_wind_ms)) {
    fail("non-finite peak surface wind");
  }
  if (!std::isfinite(realization.max_shoreline_wse_m)) {
    fail("non-finite max shoreline WSE");
  }
  for (const AssetImpact& impact : realization.impacts) {
    if (!std::isfinite(impact.inundation_depth_m) ||
        !std::isfinite(impact.peak_wind_ms)) {
      fail("non-finite asset impact");
    }
  }
}

RealizationEngine::Shared::Shared(
    std::shared_ptr<const terrain::Terrain> terrain_in,
    std::vector<ExposedAsset> assets_in, RealizationConfig config_in)
    : terrain(std::move(terrain_in)), assets(std::move(assets_in)),
      config(config_in),
      cm(mesh::build_coastal_mesh(require_terrain(terrain), config.mesh)),
      generator(config.ensemble) {
  if (config.harbor.enabled) {
    sheltered = sheltered_stations(cm, *terrain, config.harbor);
    harbor_sources = harbor_source_map(cm, sheltered);
  } else {
    sheltered.assign(cm.stations.size(), false);
    harbor_sources.resize(cm.stations.size());
    for (std::size_t i = 0; i < harbor_sources.size(); ++i) {
      harbor_sources[i] = i;
    }
  }
}

RealizationEngine::RealizationEngine(
    std::shared_ptr<const terrain::Terrain> terrain,
    std::vector<ExposedAsset> assets, RealizationConfig config)
    : shared_(std::make_shared<const Shared>(std::move(terrain),
                                             std::move(assets), config)),
      scope_(shared_->assets.size()), assets_(shared_->assets),
      bindings_(shared_->cm, shared_->terrain->projection(),
                shared_->config.surge, shared_->config.inundation,
                shared_->assets,
                shared_->config.smoothing_band_m,
                shared_->config.smoothing_passes) {
  for (std::size_t a = 0; a < scope_.size(); ++a) scope_[a] = a;
  CT_LOG(kInfo, "surge") << "coastal mesh: " << shared_->cm.mesh.node_count()
                         << " nodes, " << shared_->cm.mesh.element_count()
                         << " elements, " << shared_->cm.stations.size()
                         << " shoreline stations, "
                         << bindings_.active_nodes().size()
                         << " active surge nodes";
}

RealizationEngine::RealizationEngine(std::shared_ptr<const Shared> shared,
                                     std::vector<std::size_t> scope,
                                     MeshBindings bindings)
    : shared_(std::move(shared)), scope_(std::move(scope)),
      bindings_(std::move(bindings)) {
  assets_.reserve(scope_.size());
  for (const std::size_t a : scope_) assets_.push_back(shared_->assets[a]);
}

RealizationEngine RealizationEngine::scoped(
    const std::vector<std::string>& site_ids) const {
  const RealizationConfig& config = shared_->config;
  std::vector<std::size_t> kept;  // positions in assets_
  std::vector<std::size_t> scope;  // positions in the full list
  std::vector<char> stations(shared_->cm.stations.size(), 0);
  for (std::size_t a = 0; a < assets_.size(); ++a) {
    if (std::find(site_ids.begin(), site_ids.end(), assets_[a].id) ==
        site_ids.end()) {
      continue;
    }
    kept.push_back(a);
    scope.push_back(scope_[a]);
    mark_station_inputs(bindings_.stencils()[a].station, shared_->sheltered,
                        shared_->harbor_sources, config.alongshore_window,
                        stations);
  }
  return RealizationEngine(shared_, std::move(scope),
                           bindings_.scoped(kept, stations));
}

void RealizationEngine::apply_wind_fragility(const storm::StormTrack& track,
                                             std::uint64_t index,
                                             HurricaneRealization& out) const {
  const RealizationConfig& config = shared_->config;
  const geo::EnuProjection& proj = shared_->terrain->projection();
  const storm::HollandWindField wind_field(config.surge.wind_options);
  util::Rng rng =
      util::Rng(config.base_seed, "wind-damage").child("realization", index);
  // Walk the FULL asset list so every engine spends one draw per
  // curve-bearing asset in the same order: bernoulli is one uniform draw,
  // so an asset outside the scope advances the stream by exactly that and
  // a kept asset gets the draw the full engine gives it.
  std::size_t slot = 0;  // next position in scope_
  for (std::size_t a = 0; a < shared_->assets.size(); ++a) {
    const FragilityCurve* curve = nullptr;
    switch (shared_->assets[a].exposure_class) {
      case ExposureClass::kFacility: break;  // wind-hardened building
      case ExposureClass::kPowerPlant:
        curve = &config.fragility.power_plant;
        break;
      case ExposureClass::kSubstation:
        curve = &config.fragility.substation;
        break;
    }
    if (slot == scope_.size() || scope_[slot] != a) {
      if (curve != nullptr) rng.uniform();
      continue;
    }
    AssetImpact& impact = out.impacts[slot++];
    impact.peak_wind_ms =
        peak_wind_at(track, proj, proj.to_enu(shared_->assets[a].location),
                     wind_field, config.fragility.scan_dt_s);
    if (curve != nullptr) {
      impact.wind_failed =
          rng.bernoulli(damage_probability(*curve, impact.peak_wind_ms));
    }
  }
}

HurricaneRealization RealizationEngine::run(std::uint64_t index) const {
  // One scratch per thread: TaskPool workers and the caller's own thread
  // each reuse their own buffers.
  thread_local RealizationScratch scratch;
  return run(index, scratch);
}

void RealizationEngine::shoreline_wse(mesh::NodeField& envelope,
                                      RealizationScratch& scratch) const {
  const RealizationConfig& config = shared_->config;
  const mesh::CoastalMesh& cm = shared_->cm;
  mesh::shoreline_average_and_extend(cm, bindings_.shoreline_plan(), envelope,
                                     scratch.field_scratch);
  mesh::shoreline_values(cm, envelope, scratch.shore_wse);
  alongshore_average(scratch.shore_wse, shared_->sheltered,
                     config.alongshore_window, scratch.station_snapshot);
  if (config.sea_level_offset_m != 0.0) {
    for (double& wse : scratch.shore_wse) wse += config.sea_level_offset_m;
  }
  if (config.harbor.enabled) {
    apply_harbor_transfer(scratch.shore_wse, shared_->sheltered,
                          shared_->harbor_sources, config.harbor.amplification,
                          scratch.station_snapshot);
  }
}

HurricaneRealization RealizationEngine::run(std::uint64_t index,
                                            RealizationScratch& scratch) const {
  const RealizationConfig& config = shared_->config;
  const storm::StormTrack track =
      shared_->generator.generate(config.base_seed, index);

  bindings_.accumulate_envelope(track, shared_->terrain->projection(),
                                scratch.envelope);
  shoreline_wse(scratch.envelope, scratch);

  HurricaneRealization out;
  out.index = index;
  bindings_.impacts_into(scratch.shore_wse, out.impacts);
  out.asset_index = bindings_.asset_index();
  out.peak_wind_ms = track.peak_surface_wind_ms();

  // Optional wind-fragility stage (extension; see fragility.h).
  if (config.fragility.enabled) {
    apply_wind_fragility(track, index, out);
  }
  out.max_shoreline_wse_m = guarded_max(
      scratch.shore_wse, bindings_.read_stations(), index, config.base_seed);
  validate_realization(out, config.base_seed);
  return out;
}

std::vector<HurricaneRealization> RealizationEngine::run_batch(
    std::size_t count) const {
  std::vector<HurricaneRealization> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(run(static_cast<std::uint64_t>(i)));
  }
  return out;
}

}  // namespace ct::surge
