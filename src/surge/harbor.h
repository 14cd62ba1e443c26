// Harbor/embayment treatment of shoreline surge. Wind setup is an
// open-coast phenomenon; inside a narrow harbor or loch the water level
// follows the open coast at the mouth (propagated as a long wave), often
// slightly amplified by funneling.
//
// A station is SHELTERED when the ray cast seaward along its outward
// normal re-enters land within a short distance — i.e. the station faces
// another shore across a narrow channel, as inside Pearl Harbor. A station
// on a broad open bay (e.g. Mamala Bay at Honolulu) shoots its ray to open
// ocean and stays EXPOSED. Sheltered stations inherit the surge of their
// nearest exposed station.
//
// On Oahu this couples Waiau (head of Pearl Harbor) to the open south
// shore — the mechanism behind the paper's observation that Waiau floods
// in every realization that floods Honolulu.
#pragma once

#include <vector>

#include "mesh/coastal_builder.h"
#include "terrain/terrain.h"

namespace ct::surge {

struct HarborConfig {
  /// How far the seaward normal ray is traced (m).
  double ray_length_m = 6000.0;
  /// Sampling step along the ray (m).
  double ray_step_m = 100.0;
  /// The ray must stay over water for this long before a land hit counts
  /// (skips the surf zone right at the station).
  double ray_clearance_m = 200.0;
  /// Funneling amplification applied to the inherited level.
  double amplification = 1.08;
  /// Master switch (ablation benches disable it).
  bool enabled = true;
};

/// Per-station shelter classification (true = sheltered).
std::vector<bool> sheltered_stations(const mesh::CoastalMesh& cm,
                                     const terrain::Terrain& terrain,
                                     const HarborConfig& config);

/// For each sheltered station, the index of the nearest exposed station
/// (by euclidean distance; a tie goes to the lowest index). Identity for
/// exposed stations and when every station is sheltered. An
/// O(stations^2) scan; the map is built once per engine.
std::vector<std::size_t> harbor_source_map(const mesh::CoastalMesh& cm,
                                           const std::vector<bool>& sheltered);

/// Applies the transfer in place: sheltered stations get
/// `amplification * wse[source]`, read from `snapshot`, a pre-transfer copy
/// (reused across realizations by the engine scratch) so chained sheltered
/// stations do not compound.
void apply_harbor_transfer(std::vector<double>& shore_wse,
                           const std::vector<bool>& sheltered,
                           const std::vector<std::size_t>& source_map,
                           double amplification,
                           std::vector<double>& snapshot);

/// Along-shore moving average over EXPOSED stations (paper §V-A: "we
/// averaged the water surface elevations near the shoreline"). Each
/// exposed station is replaced by the mean of the exposed stations within
/// `window` index positions along the shoreline walk (the walk is
/// circular). Sheltered stations are left untouched — run this BEFORE
/// apply_harbor_transfer so harbors inherit the averaged open-coast level.
/// `snapshot` is the caller-provided buffer the averages read from.
void alongshore_average(std::vector<double>& shore_wse,
                        const std::vector<bool>& sheltered, int window,
                        std::vector<double>& snapshot);

/// Marks in `mask` (one entry per station) every station whose value,
/// before alongshore_average(`window`), can reach the value of `station`
/// after alongshore_average and then apply_harbor_transfer: its harbor
/// source when sheltered (itself otherwise), and that station's exposed
/// alongshore window. Both steps read nothing else, so a station left
/// unmarked cannot move the final value of `station`.
void mark_station_inputs(std::size_t station,
                         const std::vector<bool>& sheltered,
                         const std::vector<std::size_t>& source_map,
                         int window, std::vector<char>& mask);

}  // namespace ct::surge
