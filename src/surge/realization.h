// Hurricane realization engine: the paper's natural-disaster input stage.
// Each realization draws one storm from the CAT-2 ensemble, runs the surge
// solver over the coastal mesh, applies the shoreline averaging/extension
// post-processing, and records per-asset peak inundation. 1000 realizations
// form the natural-disaster input to the compound-threat framework.
//
// Two execution paths produce bit-identical results (tests/fastpath_test):
//  - run(): the hot path over the MeshBindings precompute — per-step storm
//    kernel, active-node envelope, in-place smoothing, reusable scratch.
//  - run_reference(): the original allocating pipeline, kept as the oracle.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mesh/coastal_builder.h"
#include "mesh/field.h"
#include "storm/generator.h"
#include "surge/fragility.h"
#include "surge/harbor.h"
#include "surge/inundation.h"
#include "surge/mesh_bindings.h"
#include "surge/surge_model.h"
#include "terrain/terrain.h"

namespace ct::surge {

/// Everything that parameterizes the realization pipeline.
struct RealizationConfig {
  mesh::CoastalMeshConfig mesh;
  SurgeConfig surge;
  InundationConfig inundation;
  storm::TrackEnsembleConfig ensemble;
  HarborConfig harbor;
  /// Wind damage to grid assets (extension, default off — see fragility.h).
  WindFragilityConfig fragility;
  /// Shoreline smoothing band and passes (paper §V-A averaging step).
  double smoothing_band_m = 2500.0;
  int smoothing_passes = 2;
  /// Along-shore moving-average half-window in stations (the second part
  /// of the paper's shoreline averaging; 8 stations ~ 16 km).
  int alongshore_window = 8;
  /// Constant water-level offset (m) added to every shoreline station:
  /// models sea-level rise (planning studies) or astronomical tide phase.
  double sea_level_offset_m = 0.0;
  /// Base seed of the whole experiment; realization i is a pure function
  /// of (base_seed, i).
  std::uint64_t base_seed = 20220627;  // DSN-W 2022 date
};

/// One hurricane realization's outcome.
struct HurricaneRealization {
  std::uint64_t index = 0;
  /// Impacts in the same order as the engine's asset list.
  std::vector<AssetImpact> impacts;
  /// Peak surface wind of the drawn storm (m/s).
  double peak_wind_ms = 0.0;
  /// Maximum smoothed shoreline WSE anywhere on the island (m).
  double max_shoreline_wse_m = 0.0;
  /// Shared id -> impacts-position map attached by the engine; lookups
  /// fall back to a linear scan when absent (e.g. cache-deserialized or
  /// hand-built realizations).
  std::shared_ptr<const AssetIndex> asset_index;

  /// True if the asset with this id failed by FLOODING (the paper's
  /// failure mode). O(1) via asset_index when attached, O(n) otherwise.
  bool asset_failed(const std::string& id) const;
  /// Inundation depth for this asset id (0 when absent).
  double asset_depth(const std::string& id) const;
  /// True if the asset failed by wind damage (extension; false when the
  /// fragility stage is disabled).
  bool asset_wind_failed(const std::string& id) const;
  /// Count of wind-damaged assets in this realization.
  std::size_t wind_damage_count() const;

 private:
  /// Impact for `id`, or nullptr when absent.
  const AssetImpact* find_impact(const std::string& id) const;
};

/// Per-worker reusable buffers for the realization hot path. One instance
/// per thread (run() keeps a thread_local one); after the first realization
/// the steady state allocates nothing but the output impact strings.
struct RealizationScratch {
  mesh::NodeField envelope;
  mesh::NodeField field_scratch;
  std::vector<double> shore_wse;
  std::vector<double> station_snapshot;
};

/// Validates a realization's numeric outputs: throws ct::Error{kNumeric}
/// (with realization/seed provenance) when the peak wind, shoreline WSE,
/// or any asset depth is NaN/Inf. The engine calls this on both execution
/// paths so a numerically exploded realization fails ITSELF — a typed,
/// quarantinable error — instead of leaking poisoned values into the
/// outcome distribution. The ensemble runtime also re-validates after
/// fault injection (RuntimeFaultProfile nan rule).
void validate_realization(const HurricaneRealization& realization,
                          std::uint64_t base_seed);

/// Deterministic Monte-Carlo engine. Construct once (builds the mesh and
/// the MeshBindings precompute), then run realizations on demand.
/// Thread-compatible: `run` is const and all shared state is read-only, so
/// realizations may be computed concurrently.
class RealizationEngine {
 public:
  RealizationEngine(std::shared_ptr<const terrain::Terrain> terrain,
                    std::vector<ExposedAsset> assets,
                    RealizationConfig config = {});

  /// Runs realization `index` (deterministic in (config.base_seed, index))
  /// on the hot path, reusing a thread-local scratch. Bit-identical to
  /// run_reference.
  HurricaneRealization run(std::uint64_t index) const;

  /// Hot path with caller-owned scratch (for callers managing worker
  /// lifetimes themselves).
  HurricaneRealization run(std::uint64_t index,
                           RealizationScratch& scratch) const;

  /// The original allocating pipeline, kept as the equivalence oracle and
  /// for apples-to-apples benchmarking.
  HurricaneRealization run_reference(std::uint64_t index) const;

  /// Runs realizations [0, count) serially: the reference the parallel
  /// runtime (runtime::EnsembleRunner) is checked against.
  std::vector<HurricaneRealization> run_batch(std::size_t count) const;

  const std::vector<ExposedAsset>& assets() const noexcept { return assets_; }
  const mesh::CoastalMesh& coastal_mesh() const noexcept { return cm_; }
  const RealizationConfig& config() const noexcept { return config_; }
  const terrain::Terrain& terrain() const noexcept { return *terrain_; }
  /// Shelter classification of shoreline stations (harbor treatment).
  const std::vector<bool>& sheltered() const noexcept { return sheltered_; }
  /// The per-(terrain, mesh config) precompute shared by all realizations.
  const MeshBindings& bindings() const noexcept { return bindings_; }

 private:
  /// Wind-fragility stage shared by both paths (track-scan + sampling).
  void apply_wind_fragility(const storm::StormTrack& track,
                            std::uint64_t index,
                            HurricaneRealization& out) const;

  std::shared_ptr<const terrain::Terrain> terrain_;
  std::vector<ExposedAsset> assets_;
  RealizationConfig config_;
  mesh::CoastalMesh cm_;
  storm::TrackGenerator generator_;
  SurgeSolver solver_;
  InundationMapper mapper_;
  MeshBindings bindings_;
  std::vector<bool> sheltered_;
  std::vector<std::size_t> harbor_sources_;
};

}  // namespace ct::surge
