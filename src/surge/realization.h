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
//
// An engine serves every asset it was built with and every shoreline
// station. scoped() derives an engine for a few sites that shares the mesh
// and walks only the nodes those sites can read (DESIGN.md §10).
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
  /// Maximum smoothed shoreline WSE over the engine's read stations (m):
  /// anywhere on the island for a full engine, over the stencil stations
  /// of its sites for a scoped one (MeshBindings::read_stations).
  double max_shoreline_wse_m = 0.0;
  /// Shared id -> impacts-position map attached by the engine; lookups
  /// fall back to a linear scan when absent (e.g. CSV-loaded or hand-built
  /// realizations) or when the impacts no longer match it.
  std::shared_ptr<const AssetIndex> asset_index;

  // Lookups by asset id. On an engine-produced realization (index attached,
  // impacts unfiltered) an id outside the engine's asset list throws
  // ct::Error{kInvalidInput}: a scoped engine never reports "not failed"
  // for a site it did not compute. Without a usable index an absent id
  // reads as not failed / depth 0 (the CSV rule: absent means not flooded).

  /// True if the asset with this id failed by FLOODING (the paper's
  /// failure mode). O(1) via asset_index when attached, O(n) otherwise.
  bool asset_failed(const std::string& id) const;
  /// Inundation depth for this asset id.
  double asset_depth(const std::string& id) const;
  /// True if the asset failed by wind damage (extension; false when the
  /// fragility stage is disabled).
  bool asset_wind_failed(const std::string& id) const;
  /// Count of wind-damaged assets in this realization.
  std::size_t wind_damage_count() const;

 private:
  /// Impact for `id`; nullptr when absent without a usable index.
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

  /// The engine an analysis of `site_ids` needs: this engine's assets with
  /// those ids, in this engine's order (an id it lacks is skipped, and
  /// looking it up throws on both engines), over bindings cut to the nodes
  /// that can move their values (MeshBindings::scoped). It shares this
  /// engine's mesh, generator, shelter mask and harbor map, so deriving it
  /// only filters frozen arrays. Every impact field of a kept asset is
  /// bit-identical to this engine's, wind damage included (the draws walk
  /// the full asset list); max_shoreline_wse_m covers the read stations
  /// only. The ensemble is the same, so callers key results by this
  /// engine's batch digest.
  RealizationEngine scoped(const std::vector<std::string>& site_ids) const;

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

  /// The post-envelope stage of run(): smoothing and extension (in place
  /// on `envelope`), shoreline sampling, alongshore averaging, sea-level
  /// offset and harbor transfer, leaving the per-station shoreline WSE in
  /// `scratch.shore_wse`. Exact at the read stations for any envelope that
  /// is exact on the active nodes.
  void shoreline_wse(mesh::NodeField& envelope,
                     RealizationScratch& scratch) const;

  /// The assets this engine reports, in impact order.
  const std::vector<ExposedAsset>& assets() const noexcept { return assets_; }
  const mesh::CoastalMesh& coastal_mesh() const noexcept { return shared_->cm; }
  const RealizationConfig& config() const noexcept { return shared_->config; }
  const terrain::Terrain& terrain() const noexcept {
    return *shared_->terrain;
  }
  /// Shelter classification of shoreline stations (harbor treatment).
  const std::vector<bool>& sheltered() const noexcept {
    return shared_->sheltered;
  }
  /// The per-(terrain, mesh config) precompute shared by all realizations.
  const MeshBindings& bindings() const noexcept { return bindings_; }

 private:
  /// The scope-independent state, built once by the public constructor and
  /// shared by every engine scoped from it. It lives on the heap and never
  /// moves, so the references the mapper and the bindings keep into `cm`
  /// stay valid for any copy or move of an engine.
  struct Shared {
    Shared(std::shared_ptr<const terrain::Terrain> terrain,
           std::vector<ExposedAsset> assets, RealizationConfig config);

    std::shared_ptr<const terrain::Terrain> terrain;
    std::vector<ExposedAsset> assets;  ///< the full asset list
    RealizationConfig config;
    mesh::CoastalMesh cm;
    storm::TrackGenerator generator;
    SurgeSolver solver;
    InundationMapper mapper;
    std::vector<bool> sheltered;
    std::vector<std::size_t> harbor_sources;
  };

  RealizationEngine(std::shared_ptr<const Shared> shared,
                    std::vector<std::size_t> scope, MeshBindings bindings);

  /// Wind-fragility stage shared by both paths (track-scan + sampling).
  void apply_wind_fragility(const storm::StormTrack& track,
                            std::uint64_t index,
                            HurricaneRealization& out) const;

  std::shared_ptr<const Shared> shared_;
  /// Position of each of assets_ in shared_->assets (ascending).
  std::vector<std::size_t> scope_;
  std::vector<ExposedAsset> assets_;
  MeshBindings bindings_;
};

}  // namespace ct::surge
