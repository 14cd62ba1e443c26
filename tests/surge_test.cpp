// Tests for the surge envelope, inundation mapping, harbor treatment, and
// the realization engine (fast cases; statistical calibration lives in
// calibration_test.cpp).
#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <vector>

#include <gtest/gtest.h>

#include "mesh/field.h"
#include "scada/oahu.h"
#include "surge/harbor.h"
#include "surge/inundation.h"
#include "surge/mesh_bindings.h"
#include "surge/realization.h"
#include "surge/surge_model.h"
#include "surge/wse_bound.h"
#include "terrain/oahu.h"
#include "util/error.h"

namespace ct::surge {
namespace {

/// Shared slow fixtures: one coastal mesh + one engine for all tests.
class SurgeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    terrain_ = terrain::make_oahu_terrain().release();
    cm_ = new mesh::CoastalMesh(
        mesh::build_coastal_mesh(*terrain_, mesh::CoastalMeshConfig{}));
  }
  static void TearDownTestSuite() {
    delete cm_;
    delete terrain_;
  }

  /// The engine's bindings over this mesh for `assets`, with the default
  /// surge, smoothing and `inundation` parameters.
  static MeshBindings bindings(const std::vector<ExposedAsset>& assets = {},
                               const InundationConfig& inundation = {}) {
    const RealizationConfig c;
    return MeshBindings(*cm_, terrain_->projection(), c.surge, inundation,
                        assets, c.smoothing_band_m, c.smoothing_passes);
  }

  /// The envelope of `track` on the active nodes (0 elsewhere).
  static mesh::NodeField envelope(const storm::StormTrack& track) {
    mesh::NodeField out;
    bindings().accumulate_envelope(track, terrain_->projection(), out);
    return out;
  }

  /// Impacts of `assets` under a uniform shoreline WSE of `wse_m`.
  static std::vector<AssetImpact> impacts(
      const std::vector<ExposedAsset>& assets, double wse_m,
      const InundationConfig& inundation = {}) {
    std::vector<AssetImpact> out;
    bindings(assets, inundation)
        .impacts_into(std::vector<double>(cm_->stations.size(), wse_m), out);
    return out;
  }

  static const terrain::Terrain* terrain_;
  static const mesh::CoastalMesh* cm_;
};

const terrain::Terrain* SurgeFixture::terrain_ = nullptr;
const mesh::CoastalMesh* SurgeFixture::cm_ = nullptr;

storm::StormTrack direct_hit_track() {
  // Straight south-to-north track over the island's west side.
  std::vector<storm::TrackPoint> fixes;
  for (int i = 0; i <= 24; ++i) {
    storm::TrackPoint p;
    p.time_s = i * 3600.0;
    p.center = {19.5 + 0.125 * i, -158.1};
    p.vortex.central_pressure_pa = 96800.0;
    p.vortex.rmax_m = 40000.0;
    p.vortex.holland_b = 1.35;
    p.vortex.latitude_deg = p.center.lat_deg;
    fixes.push_back(p);
  }
  return storm::StormTrack(std::move(fixes));
}

TEST_F(SurgeFixture, DirectHitProducesRealisticSurge) {
  const mesh::NodeField env = envelope(direct_hit_track());
  const double peak = mesh::field_max(env);
  // A CAT-2 passing over the island should raise 1-4 m somewhere.
  EXPECT_GT(peak, 1.0);
  EXPECT_LT(peak, 5.0);
  EXPECT_GE(mesh::field_min(env), 0.0);
}

TEST_F(SurgeFixture, FarAwayStormProducesNoSurge) {
  std::vector<storm::TrackPoint> fixes;
  for (int i = 0; i <= 5; ++i) {
    storm::TrackPoint p;
    p.time_s = i * 3600.0;
    p.center = {5.0, -140.0 + 0.1 * i};  // thousands of km away
    p.vortex = direct_hit_track().points().front().vortex;
    fixes.push_back(p);
  }
  const mesh::NodeField env = envelope(storm::StormTrack(std::move(fixes)));
  EXPECT_DOUBLE_EQ(mesh::field_max(env), 0.0);  // skipped by distance cull
}

TEST_F(SurgeFixture, StrongerStormMoreSurge) {
  storm::StormTrack weak = direct_hit_track();
  std::vector<storm::TrackPoint> strong_fixes = weak.points();
  for (auto& p : strong_fixes) p.vortex.central_pressure_pa = 95500.0;
  const storm::StormTrack strong(std::move(strong_fixes));
  EXPECT_GT(mesh::field_max(envelope(strong)),
            mesh::field_max(envelope(weak)));
}

// ---------------------------------------------------------------- inundation

TEST_F(SurgeFixture, InundationThresholdAndDecay) {
  const ExposedAsset at_shore{"shore", terrain_->projection().to_geo(
                                            cm_->stations[0].position),
                              1.0};
  // Same spot but 3 m pad elevation: dry.
  const ExposedAsset high{"high", at_shore.location, 3.0};
  // An asset 3 km inland sees an attenuated water level.
  const geo::Vec2 inland_pos = cm_->stations[0].position -
                               cm_->stations[0].outward_normal * 3000.0;
  const ExposedAsset inland{"inland",
                            terrain_->projection().to_geo(inland_pos), 0.0};
  const std::vector<AssetImpact> out = impacts({at_shore, high, inland}, 2.0);
  ASSERT_EQ(out.size(), 3u);

  const AssetImpact& shore_impact = out[0];
  EXPECT_EQ(shore_impact.asset_id, "shore");
  EXPECT_NEAR(shore_impact.water_level_m, 2.0, 0.05);
  EXPECT_NEAR(shore_impact.inundation_depth_m, 1.0, 0.05);
  EXPECT_TRUE(shore_impact.failed);

  EXPECT_DOUBLE_EQ(out[1].inundation_depth_m, 0.0);
  EXPECT_FALSE(out[1].failed);

  EXPECT_LT(out[2].water_level_m, shore_impact.water_level_m);
  EXPECT_GT(out[2].water_level_m, 0.0);
}

TEST_F(SurgeFixture, FailureExactlyAboveThreshold) {
  InundationConfig config;
  config.failure_threshold_m = 0.5;
  const geo::GeoPoint loc =
      terrain_->projection().to_geo(cm_->stations[3].position);
  // depth = 1.0 - elev; elev 0.5 -> depth 0.5 -> NOT failed (strictly >).
  const std::vector<AssetImpact> out =
      impacts({{"a", loc, 0.5}, {"b", loc, 0.45}}, 1.0, config);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_FALSE(out[0].failed);
  EXPECT_TRUE(out[1].failed);
}

TEST_F(SurgeFixture, InundationValidation) {
  const MeshBindings b = bindings({{"x", {21.3, -157.9}, 1.0}});
  std::vector<AssetImpact> out;
  EXPECT_THROW(b.impacts_into(std::vector<double>(3, 1.0), out),
               std::invalid_argument);
  InundationConfig bad;
  bad.decay_length_m = 0.0;
  EXPECT_THROW(bindings({}, bad), std::invalid_argument);
  bad.decay_length_m = -1.0;
  EXPECT_THROW(bindings({}, bad), std::invalid_argument);
}

// ---------------------------------------------------------------- harbor

TEST_F(SurgeFixture, PearlHarborStationsAreSheltered) {
  const auto sheltered = sheltered_stations(*cm_, *terrain_, HarborConfig{});
  const auto& proj = terrain_->projection();
  std::size_t in_harbor_sheltered = 0;
  std::size_t in_harbor_total = 0;
  std::size_t south_shore_sheltered = 0;
  for (std::size_t i = 0; i < cm_->stations.size(); ++i) {
    const geo::GeoPoint g = proj.to_geo(cm_->stations[i].position);
    // Loch interior (excludes the exposed entrance flanks near 21.32 and
    // the unrelated north shore, which shares these longitudes).
    const bool in_harbor = g.lat_deg > 21.335 && g.lat_deg < 21.40 &&
                           g.lon_deg > -157.99 && g.lon_deg < -157.93;
    if (in_harbor) {
      ++in_harbor_total;
      if (sheltered[i]) ++in_harbor_sheltered;
    }
    // Open south shore from the airport to Diamond Head.
    const bool south_shore =
        g.lat_deg < 21.31 && g.lon_deg > -157.93 && g.lon_deg < -157.80;
    if (south_shore && sheltered[i]) ++south_shore_sheltered;
  }
  ASSERT_GT(in_harbor_total, 2u);
  EXPECT_GE(in_harbor_sheltered, 5u);
  EXPECT_GE(in_harbor_sheltered + 2, in_harbor_total);
  EXPECT_EQ(south_shore_sheltered, 0u);
}

TEST(Harbor, TransferAppliesAmplificationFromSnapshot) {
  std::vector<double> wse = {1.0, 2.0, 3.0};
  const std::vector<bool> sheltered = {false, true, true};
  const std::vector<std::size_t> sources = {0, 0, 0};
  std::vector<double> snapshot;
  apply_harbor_transfer(wse, sheltered, sources, 1.1, snapshot);
  EXPECT_DOUBLE_EQ(wse[0], 1.0);
  EXPECT_DOUBLE_EQ(wse[1], 1.1);
  EXPECT_DOUBLE_EQ(wse[2], 1.1);
  EXPECT_THROW(
      apply_harbor_transfer(wse, {false}, sources, 1.0, snapshot),
      std::invalid_argument);
}

TEST(Harbor, AlongshoreAverageProperties) {
  std::vector<double> snapshot;
  // Constant field is a fixed point.
  std::vector<double> constant(10, 2.5);
  alongshore_average(constant, std::vector<bool>(10, false), 3, snapshot);
  for (const double v : constant) EXPECT_DOUBLE_EQ(v, 2.5);

  // Window 0 is a no-op.
  std::vector<double> field = {1, 2, 3, 4};
  const std::vector<double> before = field;
  alongshore_average(field, std::vector<bool>(4, false), 0, snapshot);
  EXPECT_EQ(field, before);

  // Averaging is bounded by min/max and skips sheltered stations.
  std::vector<double> mixed = {0.0, 10.0, 0.0, 10.0, 0.0, 10.0};
  std::vector<bool> sheltered(6, false);
  sheltered[2] = true;
  alongshore_average(mixed, sheltered, 1, snapshot);
  EXPECT_DOUBLE_EQ(mixed[2], 0.0);  // untouched
  for (const double v : mixed) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 10.0);
  }
  EXPECT_THROW(
      alongshore_average(mixed, std::vector<bool>(2, false), 1, snapshot),
      std::invalid_argument);
}

// ---------------------------------------------------------------- engine

TEST(RealizationEngine, DeterministicRealizations) {
  const scada::ScadaTopology topo = scada::oahu_topology();
  RealizationConfig config;
  const RealizationEngine engine(terrain::make_oahu_terrain(),
                                 topo.exposed_assets(), config);
  const HurricaneRealization a = engine.run(11);
  const HurricaneRealization b = engine.run(11);
  ASSERT_EQ(a.impacts.size(), b.impacts.size());
  for (std::size_t i = 0; i < a.impacts.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.impacts[i].water_level_m, b.impacts[i].water_level_m);
    EXPECT_EQ(a.impacts[i].failed, b.impacts[i].failed);
  }
  EXPECT_DOUBLE_EQ(a.peak_wind_ms, b.peak_wind_ms);
}

TEST(RealizationEngine, ImpactsAlignWithAssetOrder) {
  const scada::ScadaTopology topo = scada::oahu_topology();
  const RealizationEngine engine(terrain::make_oahu_terrain(),
                                 topo.exposed_assets(), {});
  const HurricaneRealization r = engine.run(0);
  ASSERT_EQ(r.impacts.size(), topo.assets().size());
  for (std::size_t i = 0; i < r.impacts.size(); ++i) {
    EXPECT_EQ(r.impacts[i].asset_id, topo.assets()[i].id);
  }
}

TEST(RealizationEngine, HelpersLookUpById) {
  const scada::ScadaTopology topo = scada::oahu_topology();
  const RealizationEngine engine(terrain::make_oahu_terrain(),
                                 topo.exposed_assets(), {});
  const HurricaneRealization r = engine.run(2);
  EXPECT_GE(r.asset_depth(scada::oahu_ids::kHonoluluCc), 0.0);
  // An id the engine never computed is an error, not "not flooded".
  EXPECT_THROW(r.asset_failed("no-such-asset"), Error);
  EXPECT_THROW(r.asset_depth("no-such-asset"), Error);
}

TEST(RealizationEngine, NullTerrainRejected) {
  EXPECT_THROW(RealizationEngine(nullptr, {}, {}), std::invalid_argument);
}

TEST(RealizationEngine, BatchIndicesAreStable) {
  // run_batch(n)[i] must equal run(i): realizations are pure functions of
  // (seed, index), so growing the batch never changes earlier entries.
  const scada::ScadaTopology topo = scada::oahu_topology();
  const RealizationEngine engine(terrain::make_oahu_terrain(),
                                 topo.exposed_assets(), {});
  const auto batch = engine.run_batch(3);
  ASSERT_EQ(batch.size(), 3u);
  const HurricaneRealization direct = engine.run(2);
  EXPECT_EQ(batch[2].impacts.size(), direct.impacts.size());
  for (std::size_t i = 0; i < direct.impacts.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[2].impacts[i].water_level_m,
                     direct.impacts[i].water_level_m);
  }
}

TEST_F(SurgeFixture, HarborSourceMapPicksTheNearestExposedStation) {
  const std::size_t n = cm_->stations.size();
  ASSERT_GT(n, 4u);

  std::vector<std::vector<bool>> masks;
  masks.push_back(sheltered_stations(*cm_, *terrain_, HarborConfig{}));
  masks.emplace_back(n, false);  // nothing sheltered
  masks.emplace_back(n, true);   // everything sheltered
  {
    std::vector<bool> alternating(n, false);
    for (std::size_t i = 0; i < n; i += 2) alternating[i] = true;
    masks.push_back(std::move(alternating));
  }
  {
    std::vector<bool> one_exposed(n, true);
    one_exposed[n / 2] = false;
    masks.push_back(std::move(one_exposed));
  }

  const auto distance = [&](std::size_t a, std::size_t b) {
    return geo::distance(cm_->stations[a].position, cm_->stations[b].position);
  };
  for (std::size_t m = 0; m < masks.size(); ++m) {
    const std::vector<bool>& sheltered = masks[m];
    const bool any_exposed =
        std::find(sheltered.begin(), sheltered.end(), false) != sheltered.end();
    const std::vector<std::size_t> sources = harbor_source_map(*cm_, sheltered);
    ASSERT_EQ(sources.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t source = sources[i];
      if (!sheltered[i] || !any_exposed) {
        EXPECT_EQ(source, i) << "mask " << m << " station " << i;
        continue;
      }
      ASSERT_LT(source, n);
      EXPECT_FALSE(sheltered[source]) << "mask " << m << " station " << i;
      const double best = distance(i, source);
      for (std::size_t j = 0; j < n; ++j) {
        if (sheltered[j]) continue;
        EXPECT_GE(distance(i, j), best)
            << "mask " << m << " station " << i << ": " << j << " is nearer";
        if (distance(i, j) == best) {
          EXPECT_GE(j, source) << "mask " << m << " station " << i
                               << ": a tie goes to the lowest index";
        }
      }
    }
  }
  EXPECT_THROW(harbor_source_map(*cm_, std::vector<bool>(n - 1, false)),
               std::invalid_argument);
}

TEST(Harbor, SnapshotReuseIsBitStable) {
  const std::vector<bool> sheltered{false, true, false, false, true, false};
  const std::vector<std::size_t> sources{0, 2, 2, 3, 5, 5};
  const std::vector<double> base{1.0, 0.25, 2.0, 1.5, 0.125, 3.0};

  std::vector<double> a = base;
  std::vector<double> b = base;
  std::vector<double> fresh;
  std::vector<double> stale{-1.0};  // stale content must not leak
  alongshore_average(a, sheltered, 2, fresh);
  alongshore_average(b, sheltered, 2, stale);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, base);

  alongshore_average(a, sheltered, 0, stale);  // window 0: no-op
  EXPECT_EQ(a, b);

  std::vector<double> c = a;
  fresh.clear();
  apply_harbor_transfer(a, sheltered, sources, 1.08, fresh);
  apply_harbor_transfer(c, sheltered, sources, 1.08, stale);
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
}

// ------------------------------------------------- envelope pruning bound

/// One node-step's WSE from the kernel's wind sample `w`, computed exactly
/// as MeshBindings::accumulate_envelope computes it.
double kernel_wse(const SurgeConfig& surge, const storm::WindSample& w,
                  double ambient_pa, geo::Vec2 onshore, double gdepth) {
  const double exponent_m1 = surge.wind_setup_exponent - 1.0;
  const double rho_g = kWaterDensity * kGravity;
  const double u_on = std::max(0.0, w.velocity_ms.dot(onshore));
  const double eta_wind = surge.wind_setup_scale_m * u_on *
                          std::pow(w.speed_ms, exponent_m1) / gdepth;
  const double eta_pressure =
      std::max(0.0, ambient_pa - w.pressure_pa) / rho_g;
  const double eta_wave = surge.wave_setup_per_ms * u_on;
  return eta_wind + eta_pressure + eta_wave;
}

TEST(StepWseBound, BoundsKernelWseAtEveryEdgeAndBeyond) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<storm::VortexParams> vortices;
  vortices.push_back({});  // defaults
  vortices.push_back({95500.0, 101200.0, 28000.0, 1.9, 13.5});
  vortices.push_back({99900.0, 99800.0, 55000.0, 1.05, 35.0});  // dp < 0
  vortices.push_back({97000.0, 101000.0, 0.5, 1.3, 21.0});      // tiny rmax
  vortices.push_back({96500.0, 101000.0, 35000.0, 1.0, 21.0});  // B = 1
  vortices.push_back({96500.0, 101000.0, 35000.0, 2.5, 21.0});  // B = 2.5
  // No translation, and each moving storm reversed: the translation term
  // of v.n flips sign with it.
  const std::vector<geo::Vec2> translations = {
      {0.0, 0.0}, {4.0, 6.5}, {-4.0, -6.5}, {45.0, -30.0}, {-45.0, 30.0}};
  std::vector<SurgeConfig> configs(3);
  configs[1].wind_setup_exponent = 1.0;
  configs[1].wind_options.inflow_angle_deg = 23.0;
  configs[1].wind_options.translation_fraction = 0.6;
  // A large wind-setup scale lets the rounding of u_on outweigh the
  // pressure term's slack where v.n cancels.
  configs[2].wind_setup_scale_m = 1.0;
  const std::vector<double> depth_floors = {0.5, 2.0, 10.0, 80.0};

  // Onshore directions on the whole circle, plus a shorter one (the bound
  // takes |onshore| up to the norm passed to it).
  std::vector<geo::Vec2> onshore(64);
  for (std::size_t i = 0; i < onshore.size(); ++i) {
    const double a = 2.0 * std::numbers::pi * static_cast<double>(i) /
                     static_cast<double>(onshore.size());
    onshore[i] = {std::cos(a), std::sin(a)};
  }
  onshore.push_back({0.3, -0.4});
  // Axis points keep (point - center).norm() == r exactly, so the edge
  // and edge +- 1 ulp radii are hit precisely; diagonals add directions.
  std::vector<geo::Vec2> bearings = {{1, 0}, {0, 1}, {-1, 0}, {0, -1}};
  for (int i = 0; i < 4; ++i) {
    const double a = std::numbers::pi / 4.0 + i * std::numbers::pi / 2.0;
    bearings.push_back({std::cos(a), std::sin(a)});
  }

  const geo::Vec2 center{0.0, 0.0};
  const double r_far = 250000.0;
  std::size_t checked = 0;
  std::size_t violations = 0;
  std::size_t compared = 0;     // binned nodes with a wind
  std::size_t directional = 0;  // of them, offshore bound below onshore
  double tightest = 0.0;  // max wse / bound over the grid
  for (const SurgeConfig& surge : configs) {
    for (const storm::VortexParams& vortex : vortices) {
      for (const geo::Vec2 translation : translations) {
        const storm::StormStepKernel kernel(surge.wind_options, vortex,
                                            center, translation);
        // With the ambient at the central pressure the pressure setup is 0,
        // so only the absolute allowance covers a node whose v.n cancels.
        for (const double ambient :
             {vortex.ambient_pressure_pa, vortex.central_pressure_pa}) {
          StepWseBound bound(surge, kernel, ambient, 0.0, r_far, 1.0);
          ASSERT_TRUE(bound.enabled());

          std::vector<double> radii;
          for (std::size_t j = 0; j < StepWseBound::kBins; ++j) {
            const double e = bound.edge(j);
            radii.push_back(std::nextafter(e, 0.0));
            radii.push_back(e);
            radii.push_back(std::nextafter(e, kInf));
            const double next =
                j + 1 < StepWseBound::kBins ? bound.edge(j + 1) : r_far;
            radii.push_back((e + next) / 2.0);
          }
          for (const double r : {r_far, 1.5 * r_far, 4.0 * r_far}) {
            radii.push_back(r);
          }
          // Conservative lookup: one ulp below an edge reads the bin below.
          const geo::Vec2 n0{0.6, 0.8};
          EXPECT_EQ(
              bound.at({std::nextafter(bound.edge(0), 0.0), 0.0}, 1.0, n0),
              kInf);
          for (std::size_t j = 1; j < StepWseBound::kBins; ++j) {
            EXPECT_EQ(
                bound.at({std::nextafter(bound.edge(j), 0.0), 0.0}, 9.81, n0),
                bound.at({bound.edge(j - 1), 0.0}, 9.81, n0));
          }

          for (const double r : radii) {
            for (const geo::Vec2 bearing : bearings) {
              const geo::Vec2 point = center + bearing * r;
              const geo::Vec2 radial = point - center;
              const bool binned = radial.norm() >= bound.edge(0);
              const storm::WindSample w = kernel.sample(point);
              // Onshore directions perpendicular to this node's wind: v.n is
              // a cancellation there, so only the absolute allowance keeps
              // the bound above the kernel's rounded u_on.
              std::vector<geo::Vec2> normals = onshore;
              const geo::Vec2 along = w.velocity_ms.normalized();
              normals.push_back(along.perp());
              normals.push_back(along.perp() * -1.0);
              if (w.speed_ms > 0.0 && binned) {
                ++compared;
                directional += bound.at(radial, 9.81, along * -1.0) <
                               bound.at(radial, 9.81, along);
              }
              for (const double floor_m : depth_floors) {
                const double gdepth = kGravity * floor_m;
                for (const geo::Vec2 n : normals) {
                  const double limit = bound.at(radial, gdepth, n);
                  if (binned) {
                    EXPECT_TRUE(std::isfinite(limit)) << r;
                  }
                  const double wse = kernel_wse(surge, w, ambient, n, gdepth);
                  ++checked;
                  if (std::isfinite(limit)) {
                    tightest = std::max(tightest, wse / limit);
                  }
                  if (!(wse <= limit)) {
                    ++violations;
                    if (violations <= 5) {
                      ADD_FAILURE() << "r=" << r << " wse=" << wse
                                    << " bound=" << limit << " n=(" << n.x
                                    << ", " << n.y << ")"
                                    << " rmax=" << vortex.rmax_m
                                    << " B=" << vortex.holland_b;
                    }
                  }
                }
              }
            }
        }
        }
      }
    }
  }
  EXPECT_EQ(violations, 0u) << "of " << checked;
  EXPECT_GT(checked, 1000000u);
  // The grid reaches where the bound is nearly attained (bin edges, wind
  // aligned with the onshore direction), so a bound that undercuts the
  // kernel anywhere near there fails above.
  EXPECT_GT(tightest, 0.99);
  // The bound reads the direction: on this grid, every binned node facing
  // away from its wind gets a lower bound than one facing into it.
  EXPECT_GT(compared, 0u);
  EXPECT_EQ(directional, compared);
}

TEST(StepWseBound, DisabledWhenMonotonicityCannotBeShown) {
  const storm::VortexParams vortex;
  const geo::Vec2 center{0.0, 0.0};
  const geo::Vec2 translation{4.0, 6.5};
  const auto enabled = [&](const SurgeConfig& surge, double ambient) {
    const storm::StormStepKernel kernel(surge.wind_options, vortex, center,
                                        translation);
    StepWseBound bound(surge, kernel, ambient, 0.0, 250000.0, 1.0);
    if (!bound.enabled()) {
      EXPECT_EQ(bound.at({100000.0, 0.0}, 20.0, {1.0, 0.0}),
                std::numeric_limits<double>::infinity());
    }
    return bound.enabled();
  };
  const SurgeConfig base;
  EXPECT_TRUE(enabled(base, vortex.ambient_pressure_pa));

  SurgeConfig c = base;
  c.wind_setup_exponent = 0.5;
  EXPECT_FALSE(enabled(c, vortex.ambient_pressure_pa));
  c = base;
  c.wind_setup_scale_m = -1e-4;
  EXPECT_FALSE(enabled(c, vortex.ambient_pressure_pa));
  c = base;
  c.wave_setup_per_ms = -0.001;
  EXPECT_FALSE(enabled(c, vortex.ambient_pressure_pa));
  c = base;
  c.wind_options.surface_wind_factor = -0.9;
  EXPECT_FALSE(enabled(c, vortex.ambient_pressure_pa));
  c = base;
  c.wind_options.translation_fraction = -0.5;
  EXPECT_FALSE(enabled(c, vortex.ambient_pressure_pa));
  c = base;
  c.wind_setup_scale_m = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(enabled(c, vortex.ambient_pressure_pa));
  EXPECT_FALSE(enabled(base, std::numeric_limits<double>::infinity()));
}

}  // namespace
}  // namespace ct::surge
