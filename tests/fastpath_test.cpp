// Equivalence and invalidation tests for the realization hot path: the
// MeshBindings precompute (surge/mesh_bindings.h) plus RealizationEngine::
// run must be BIT-identical to run_reference (the original pipeline) for
// every consumed output, across configuration variants, thread counts, and
// the five paper SCADA architectures; and the engine-batch digest must
// change whenever the precompute's inputs change so disk caches can never
// serve stale realizations.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "obs/metrics.h"
#include "runtime/ensemble_runner.h"
#include "scada/configuration.h"
#include "scada/oahu.h"
#include "storm/generator.h"
#include "surge/realization.h"
#include "surge/surge_model.h"
#include "terrain/oahu.h"
#include "terrain/terrain.h"
#include "util/digest.h"

namespace ct {
namespace {

using surge::HurricaneRealization;
using surge::RealizationConfig;
using surge::RealizationEngine;

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

std::shared_ptr<const terrain::Terrain> oahu() {
  static const std::shared_ptr<const terrain::Terrain> t =
      terrain::make_oahu_terrain();
  return t;
}

std::vector<surge::ExposedAsset> oahu_assets() {
  return scada::oahu_topology().exposed_assets();
}

/// Bitwise comparison of every consumed field of two realizations.
void expect_bit_identical(const HurricaneRealization& a,
                          const HurricaneRealization& b,
                          const std::string& tag) {
  ASSERT_EQ(a.impacts.size(), b.impacts.size()) << tag;
  for (std::size_t i = 0; i < a.impacts.size(); ++i) {
    const surge::AssetImpact& x = a.impacts[i];
    const surge::AssetImpact& y = b.impacts[i];
    EXPECT_EQ(x.asset_id, y.asset_id) << tag << " impact " << i;
    EXPECT_EQ(x.shoreline_station, y.shoreline_station) << tag << " " << i;
    EXPECT_EQ(bits(x.shoreline_wse_m), bits(y.shoreline_wse_m))
        << tag << " " << x.asset_id;
    EXPECT_EQ(bits(x.water_level_m), bits(y.water_level_m))
        << tag << " " << x.asset_id;
    EXPECT_EQ(bits(x.inundation_depth_m), bits(y.inundation_depth_m))
        << tag << " " << x.asset_id;
    EXPECT_EQ(x.failed, y.failed) << tag << " " << x.asset_id;
    EXPECT_EQ(bits(x.peak_wind_ms), bits(y.peak_wind_ms))
        << tag << " " << x.asset_id;
    EXPECT_EQ(x.wind_failed, y.wind_failed) << tag << " " << x.asset_id;
  }
  EXPECT_EQ(bits(a.peak_wind_ms), bits(b.peak_wind_ms)) << tag;
  EXPECT_EQ(bits(a.max_shoreline_wse_m), bits(b.max_shoreline_wse_m)) << tag;
}

// ------------------------------------------------- run vs run_reference

TEST(Fastpath, RunMatchesReferenceBitExactAcrossConfigVariants) {
  struct Variant {
    const char* name;
    RealizationConfig config;
  };
  std::vector<Variant> variants;
  variants.push_back({"default", {}});
  {
    RealizationConfig c;
    c.harbor.enabled = false;
    variants.push_back({"harbor-off", c});
  }
  {
    RealizationConfig c;
    c.fragility.enabled = true;
    variants.push_back({"fragility-on", c});
  }
  {
    RealizationConfig c;
    c.sea_level_offset_m = 0.5;
    variants.push_back({"sea-level-rise", c});
  }
  {
    RealizationConfig c;
    c.smoothing_passes = 0;
    variants.push_back({"passes-0", c});
  }
  {
    RealizationConfig c;
    c.smoothing_passes = 5;
    variants.push_back({"passes-5", c});
  }
  {
    RealizationConfig c;
    c.alongshore_window = 0;
    variants.push_back({"window-0", c});
  }
  {
    RealizationConfig c;
    c.smoothing_band_m = 0.0;
    variants.push_back({"band-0", c});
  }
  // SurgeConfig variants: each reshapes the envelope kernel's radial bound
  // (exponent 0.5 turns pruning off), the step set, or the far skip.
  {
    RealizationConfig c;
    c.surge.wind_setup_exponent = 1.0;
    variants.push_back({"wind-exponent-1", c});
  }
  {
    RealizationConfig c;
    c.surge.wind_setup_exponent = 0.5;
    variants.push_back({"wind-exponent-0.5", c});
  }
  {
    RealizationConfig c;
    c.surge.wave_setup_per_ms = 0.0;
    variants.push_back({"wave-setup-0", c});
  }
  {
    RealizationConfig c;
    c.surge.wind_options.translation_fraction = 0.0;
    variants.push_back({"translation-fraction-0", c});
  }
  {
    RealizationConfig c;
    c.surge.wind_options.inflow_angle_deg = 0.0;
    variants.push_back({"inflow-angle-0", c});
  }
  {
    RealizationConfig c;
    c.surge.dt_s = 600.0;
    variants.push_back({"dt-600", c});
  }
  {
    RealizationConfig c;
    c.surge.max_considered_distance_m = 60000.0;
    variants.push_back({"considered-distance-60km", c});
  }

  for (const Variant& v : variants) {
    const RealizationEngine engine(oahu(), oahu_assets(), v.config);
    for (const std::uint64_t index : {0ull, 3ull, 17ull}) {
      expect_bit_identical(
          engine.run(index), engine.run_reference(index),
          std::string(v.name) + "[" + std::to_string(index) + "]");
    }
  }
}

TEST(Fastpath, EnvelopeMatchesSolverOnEveryActiveNodeOver200Realizations) {
  const RealizationConfig config;
  const RealizationEngine engine(oahu(), oahu_assets(), config);
  const storm::TrackGenerator generator(config.ensemble);
  const surge::SurgeSolver solver(config.surge);
  const geo::EnuProjection& proj = engine.terrain().projection();
  const surge::MeshBindings& bindings = engine.bindings();

  const auto skipped = [] {
    const obs::MetricsSnapshot snapshot = obs::capture_metrics();
    const obs::MetricValue* m = snapshot.find("surge.node_steps_skipped");
    return m != nullptr ? m->value : std::uint64_t{0};
  };
  const std::uint64_t skipped_before = skipped();
  mesh::NodeField fast;
  std::size_t mismatches = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const storm::StormTrack track = generator.generate(config.base_seed, i);
    bindings.accumulate_envelope(track, proj, fast);
    const mesh::NodeField reference =
        solver.max_envelope(engine.coastal_mesh(), track, proj);
    ASSERT_EQ(fast.size(), reference.size());
    for (const mesh::NodeId n : bindings.active_nodes()) {
      if (bits(fast[n]) != bits(reference[n])) {
        ++mismatches;
        ADD_FAILURE() << "realization " << i << " node " << n << ": "
                      << fast[n] << " vs " << reference[n];
      }
    }
    if (mismatches > 10) break;
  }
  EXPECT_EQ(mismatches, 0u);
  // The identity above must hold with pruning actually engaged.
  if (obs::enabled()) {
    EXPECT_GT(skipped(), skipped_before);
  }
}

TEST(Fastpath, CallerOwnedScratchReuseIsBitStable) {
  const RealizationEngine engine(oahu(), oahu_assets(), {});
  surge::RealizationScratch reused;
  for (const std::uint64_t index : {5ull, 0ull, 29ull, 5ull}) {
    surge::RealizationScratch fresh;
    expect_bit_identical(engine.run(index, reused),
                         engine.run(index, fresh),
                         "scratch[" + std::to_string(index) + "]");
  }
}

// --------------------------------- outcome distributions, 5 configs, jobs

TEST(Fastpath, OutcomeDistributionsBitIdenticalForPaperConfigsAtJobs1And8) {
  constexpr std::size_t kCount = 40;
  const RealizationEngine engine(oahu(), oahu_assets(), {});

  // Legacy ensemble via the reference path; fast ensemble via the runner's
  // guarded batch (which routes through run() on the pool).
  std::vector<HurricaneRealization> legacy;
  legacy.reserve(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    legacy.push_back(engine.run_reference(static_cast<std::uint64_t>(i)));
  }

  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  ASSERT_EQ(configs.size(), 5u);
  const core::AnalysisPipeline pipeline;

  for (const unsigned jobs : {1u, 8u}) {
    runtime::EnsembleOptions options;
    options.jobs = jobs;
    options.cache = false;
    options.fault_spec = "none";
    runtime::EnsembleRunner runner(options);
    const runtime::GeneratedBatch batch = runner.generate_guarded(engine, kCount);
    const std::vector<HurricaneRealization>& fast = batch.realizations;
    ASSERT_EQ(fast.size(), legacy.size());
    for (std::size_t i = 0; i < kCount; ++i) {
      expect_bit_identical(fast[i], legacy[i],
                           "jobs" + std::to_string(jobs) + "[" +
                               std::to_string(i) + "]");
    }

    for (const scada::Configuration& config : configs) {
      for (const threat::ThreatScenario scenario :
           {threat::ThreatScenario::kHurricane,
            threat::ThreatScenario::kHurricaneIntrusionIsolation}) {
        const core::ScenarioResult from_fast = pipeline.analyze_lazy(
            config, scenario, [&] { return batch.view(); }, runner, "");
        const core::ScenarioResult from_legacy =
            pipeline.analyze(config, scenario, legacy);
        ASSERT_EQ(from_fast.outcomes.total(), from_legacy.outcomes.total());
        for (const threat::OperationalState s :
             {threat::OperationalState::kGreen,
              threat::OperationalState::kOrange,
              threat::OperationalState::kRed,
              threat::OperationalState::kGray}) {
          EXPECT_EQ(from_fast.outcomes.count(s), from_legacy.outcomes.count(s))
              << config.name << " jobs=" << jobs;
        }
      }
    }
  }
}

// ------------------------------------------------ digest / invalidation

std::string engine_digest(const RealizationConfig& config,
                          std::shared_ptr<const terrain::Terrain> terrain) {
  const RealizationEngine engine(std::move(terrain), oahu_assets(), config);
  return runtime::EnsembleRunner::digest_engine_batch(engine, 4);
}

TEST(Fastpath, EngineBatchDigestInvalidatesOnEveryPrecomputeKnob) {
  const std::string baseline = engine_digest({}, oahu());
  EXPECT_EQ(engine_digest({}, oahu()), baseline)
      << "identical configs must share the cache key";

  std::vector<std::pair<const char*, RealizationConfig>> variants;
  {
    RealizationConfig c;
    c.mesh.shore_spacing_m = 2500.0;
    variants.emplace_back("mesh.shore_spacing_m", c);
  }
  {
    RealizationConfig c;
    c.mesh.cross_shore_spacing_m = 900.0;
    variants.emplace_back("mesh.cross_shore_spacing_m", c);
  }
  {
    RealizationConfig c;
    c.mesh.offshore_extent_m = 9000.0;
    variants.emplace_back("mesh.offshore_extent_m", c);
  }
  {
    RealizationConfig c;
    c.mesh.inland_extent_m = 2000.0;
    variants.emplace_back("mesh.inland_extent_m", c);
  }
  {
    RealizationConfig c;
    c.surge.min_depth_m = 3.0;
    variants.emplace_back("surge.min_depth_m", c);
  }
  {
    RealizationConfig c;
    c.smoothing_band_m = 1000.0;
    variants.emplace_back("smoothing_band_m", c);
  }
  {
    RealizationConfig c;
    c.smoothing_passes = 1;
    variants.emplace_back("smoothing_passes", c);
  }
  {
    RealizationConfig c;
    c.inundation.decay_length_m = 2500.0;
    variants.emplace_back("inundation.decay_length_m", c);
  }
  for (const auto& [name, config] : variants) {
    EXPECT_NE(engine_digest(config, oahu()), baseline) << name;
  }
}

TEST(Fastpath, EngineBatchDigestDistinguishesTerrains) {
  terrain::IslandParams params = terrain::oahu_params();
  params.name = "shifted island";
  params.shore_elevation_m += 0.4;
  const auto other =
      std::make_shared<const terrain::SyntheticIslandTerrain>(params);
  EXPECT_NE(engine_digest({}, other), engine_digest({}, oahu()));
}

TEST(Fastpath, TerrainDigestSeparatesNameAndElevation) {
  util::Digest base;
  terrain::digest_terrain(*oahu(), base);

  terrain::IslandParams renamed = terrain::oahu_params();
  renamed.name = "renamed";
  util::Digest d1;
  terrain::digest_terrain(terrain::SyntheticIslandTerrain(renamed), d1);
  EXPECT_NE(d1.hex(), base.hex());

  terrain::IslandParams steeper = terrain::oahu_params();
  steeper.plain_slope *= 2.0;
  util::Digest d2;
  terrain::digest_terrain(terrain::SyntheticIslandTerrain(steeper), d2);
  EXPECT_NE(d2.hex(), base.hex());

  util::Digest again;
  terrain::digest_terrain(*oahu(), again);
  EXPECT_EQ(again.hex(), base.hex());
}

TEST(Fastpath, IdenticalEnginesShareTheDiskCacheAcrossInstances) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "ct_fastpath_cache_test";
  std::filesystem::remove_all(dir);

  runtime::EnsembleOptions options;
  options.jobs = 1;
  options.disk_cache = true;
  options.cache_dir = dir.string();

  const auto outcome = [](const HurricaneRealization& r) {
    return r.asset_failed(scada::oahu_ids::kHonoluluCc) ? 1 : 0;
  };

  std::string first_key;
  {
    const RealizationEngine engine(oahu(), oahu_assets(), {});
    runtime::EnsembleRunner runner(options);
    first_key = runtime::EnsembleRunner::digest_engine_batch(engine, 8);
    const std::vector<HurricaneRealization> batch = engine.run_batch(8);
    const auto counts = runner.count_outcomes_guarded(
        [&] { return runtime::BatchView{&batch, nullptr, batch.size()}; },
        outcome, first_key);
    EXPECT_FALSE(counts.counts.from_cache);
  }
  {
    // A separate engine instance with an identical config must produce the
    // same key and be served from the on-disk cache.
    const RealizationEngine engine(oahu(), oahu_assets(), {});
    runtime::EnsembleRunner runner(options);
    const std::string key =
        runtime::EnsembleRunner::digest_engine_batch(engine, 8);
    EXPECT_EQ(key, first_key);
    const std::vector<HurricaneRealization> none;
    const auto counts = runner.count_outcomes_guarded(
        [&] {
          ADD_FAILURE() << "disk hit materialized the batch";
          return runtime::BatchView{&none, nullptr, 0};
        },
        outcome, key);
    EXPECT_TRUE(counts.counts.from_cache);
  }
  std::filesystem::remove_all(dir);
}

// ----------------------------------------------------- asset-index path

TEST(Fastpath, AssetIndexAcceleratesLookupsWithIdenticalSemantics) {
  const RealizationEngine engine(oahu(), oahu_assets(), {});
  const HurricaneRealization r = engine.run(2);
  ASSERT_NE(r.asset_index, nullptr);
  EXPECT_EQ(r.asset_index->size(), engine.assets().size());

  HurricaneRealization scan = r;
  scan.asset_index.reset();  // force the legacy linear scan
  for (const surge::ExposedAsset& asset : engine.assets()) {
    EXPECT_EQ(r.asset_failed(asset.id), scan.asset_failed(asset.id));
    EXPECT_EQ(bits(r.asset_depth(asset.id)), bits(scan.asset_depth(asset.id)));
    EXPECT_EQ(r.asset_wind_failed(asset.id),
              scan.asset_wind_failed(asset.id));
  }
  EXPECT_FALSE(r.asset_failed("no-such-asset"));
  EXPECT_DOUBLE_EQ(r.asset_depth("no-such-asset"), 0.0);
}

TEST(Fastpath, AssetIndexFallsBackWhenImpactsAreFiltered) {
  const RealizationEngine engine(oahu(), oahu_assets(), {});
  HurricaneRealization r = engine.run(0);
  ASSERT_GE(r.impacts.size(), 2u);
  // Simulate user code that filtered the impacts vector: the stale index
  // no longer matches positions, so lookups must verify and fall back.
  r.impacts.erase(r.impacts.begin());
  const std::string& id = r.impacts.front().asset_id;
  EXPECT_EQ(r.asset_failed(id), r.impacts.front().failed);
  EXPECT_EQ(bits(r.asset_depth(id)),
            bits(r.impacts.front().inundation_depth_m));
}

// ------------------------------------------------------- bindings shape

TEST(Fastpath, BindingsExposeActiveSubsetAndStencils) {
  const RealizationEngine engine(oahu(), oahu_assets(), {});
  const surge::MeshBindings& b = engine.bindings();

  const std::size_t nodes = engine.coastal_mesh().mesh.node_count();
  EXPECT_GT(b.active_nodes().size(), 0u);
  EXPECT_LT(b.active_nodes().size(), nodes)
      << "the active set must be a strict subset for the default band";
  for (std::size_t k = 1; k < b.active_nodes().size(); ++k) {
    EXPECT_LT(b.active_nodes()[k - 1], b.active_nodes()[k]);
  }

  ASSERT_EQ(b.stencils().size(), engine.assets().size());
  // The frozen station binding must agree with the live mapper query, and
  // the frozen barycentric stencil with live interpolation.
  mesh::NodeField field(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    field[i] = 0.25 * static_cast<double>(i % 17) - 1.0;
  }
  for (std::size_t a = 0; a < b.stencils().size(); ++a) {
    const surge::AssetStencil& s = b.stencils()[a];
    EXPECT_LT(s.station, engine.coastal_mesh().stations.size());
    EXPECT_EQ(bits(b.interpolate_at(field, a)),
              bits(engine.coastal_mesh().mesh.interpolate(field, s.enu)));
  }
}

}  // namespace
}  // namespace ct
