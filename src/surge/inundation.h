// Inundation types: the assets whose flooding matters, the mapping's
// parameters and its per-asset result. The mapping itself (smoothed
// shoreline water-surface elevation -> per-asset inundation depth) is
// MeshBindings::impacts_into. This is the paper's final hurricane-modeling
// step: "the relevant power assets ... were tracked to determine the
// inundation levels at those sites in each hurricane realization", with an
// asset failing when peak inundation exceeds 0.5 m (typical switch height
// in plants and substations).
#pragma once

#include <cstddef>
#include <string>

#include "geo/geopoint.h"

namespace ct::surge {

/// Exposure class for the (optional) wind-fragility stage: buildings
/// (control/data centers) are wind-hardened; outdoor switchyards are not.
enum class ExposureClass {
  kFacility,    ///< Hardened building: flooding only.
  kPowerPlant,  ///< Generation: flooding + robust wind fragility.
  kSubstation,  ///< Outdoor switchyard: flooding + standard wind fragility.
};

/// A physical asset whose flooding matters to the analysis.
struct ExposedAsset {
  std::string id;
  geo::GeoPoint location;
  /// Surveyed ground (pad) elevation of the asset (m above MSL).
  double ground_elevation_m = 2.0;
  ExposureClass exposure_class = ExposureClass::kFacility;
};

/// Inundation-model parameters.
struct InundationConfig {
  /// E-folding length of the water level as it extends inland from the
  /// shoreline (m). The paper extends WSE "onto the shoreline"; the decay
  /// keeps far-inland assets dry.
  double decay_length_m = 3000.0;
  /// Asset fails when inundation depth exceeds this (m). Paper: 0.5 m.
  double failure_threshold_m = 0.5;
};

/// Computed impact on one asset for one realization.
struct AssetImpact {
  std::string asset_id;
  std::size_t shoreline_station = 0;   ///< Station the water came from.
  double shoreline_wse_m = 0.0;        ///< Smoothed WSE at that station.
  double water_level_m = 0.0;          ///< WSE extended to the asset.
  double inundation_depth_m = 0.0;     ///< max(0, water level - ground).
  bool failed = false;                 ///< depth > failure threshold.
  /// Wind-fragility extension (zero/false unless enabled, see fragility.h).
  double peak_wind_ms = 0.0;           ///< Peak sustained wind at the asset.
  bool wind_failed = false;            ///< Sampled wind damage.
};

}  // namespace ct::surge
