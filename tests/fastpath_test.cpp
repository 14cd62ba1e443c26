// Equivalence and invalidation tests for the realization hot path: the
// MeshBindings precompute (surge/mesh_bindings.h) plus RealizationEngine::
// run must be BIT-identical to run_reference (the original pipeline) for
// every consumed output, across configuration variants, thread counts, and
// the five paper SCADA architectures; and the engine-batch digest must
// change whenever the precompute's inputs change so disk caches can never
// serve stale realizations.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "obs/metrics.h"
#include "runtime/ensemble_runner.h"
#include "runtime/task_pool.h"
#include "scada/configuration.h"
#include "scada/oahu.h"
#include "storm/generator.h"
#include "surge/realization.h"
#include "surge/surge_model.h"
#include "terrain/oahu.h"
#include "terrain/terrain.h"
#include "util/digest.h"
#include "util/error.h"

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

struct Variant {
  const char* name;
  RealizationConfig config;
};

/// Configuration variants that reshape every stage of the realization
/// pipeline (shared by the reference and the scope equality tests).
std::vector<Variant> config_variants() {
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
  return variants;
}

TEST(Fastpath, RunMatchesReferenceBitExactAcrossConfigVariants) {
  for (const Variant& v : config_variants()) {
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
  // An id outside the engine's asset list is an error, not "not failed".
  EXPECT_THROW(r.asset_failed("no-such-asset"), Error);
  EXPECT_THROW(r.asset_depth("no-such-asset"), Error);
  try {
    r.asset_wind_failed("no-such-asset");
    ADD_FAILURE() << "asset_wind_failed of an absent id did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
  }
  // Without an index (a CSV-loaded realization) absent still means not
  // flooded.
  EXPECT_FALSE(scan.asset_failed("no-such-asset"));
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

// --------------------------------------------------------- scoped engine

/// The site sets an analysis scopes its engine to: the paper's three sites,
/// all five control and data sites, each of those alone, and two grid
/// assets whose wind-damage draws sit mid-list (the fragility walk).
std::vector<std::vector<std::string>> site_scopes() {
  namespace ids = scada::oahu_ids;
  std::vector<std::vector<std::string>> out = {
      {ids::kHonoluluCc, ids::kWaiauCc, ids::kDrFortress},
      {ids::kHonoluluCc, ids::kWaiauCc, ids::kKaheCc, ids::kDrFortress,
       ids::kAlohaNap}};
  const std::vector<std::string> five = out[1];
  for (const std::string& id : five) out.push_back({id});
  out.push_back({"honolulu_pp", "koolau_ss"});
  return out;
}

/// "" when every impact of `scoped` is bit-equal to the full engine's
/// impact of the same asset, else the first difference.
std::string scoped_difference(const HurricaneRealization& full,
                              const HurricaneRealization& scoped) {
  if (bits(full.peak_wind_ms) != bits(scoped.peak_wind_ms)) {
    return "peak_wind_ms";
  }
  double max_wse = 0.0;
  for (std::size_t k = 0; k < scoped.impacts.size(); ++k) {
    const surge::AssetImpact& y = scoped.impacts[k];
    const auto x = std::find_if(
        full.impacts.begin(), full.impacts.end(),
        [&](const surge::AssetImpact& i) { return i.asset_id == y.asset_id; });
    if (x == full.impacts.end()) return y.asset_id + " not in the full engine";
    const std::string at = y.asset_id + ".";
    if (x->failed != y.failed) return at + "failed";
    if (bits(x->inundation_depth_m) != bits(y.inundation_depth_m)) {
      return at + "inundation_depth_m";
    }
    if (bits(x->water_level_m) != bits(y.water_level_m)) {
      return at + "water_level_m";
    }
    if (bits(x->shoreline_wse_m) != bits(y.shoreline_wse_m)) {
      return at + "shoreline_wse_m";
    }
    if (x->wind_failed != y.wind_failed) return at + "wind_failed";
    if (bits(x->peak_wind_ms) != bits(y.peak_wind_ms)) {
      return at + "peak_wind_ms";
    }
    if (x->shoreline_station != y.shoreline_station) {
      return at + "shoreline_station";
    }
    if (full.asset_failed(y.asset_id) != scoped.asset_failed(y.asset_id)) {
      return at + "asset_failed()";
    }
    max_wse = k == 0 ? y.shoreline_wse_m : std::max(max_wse, y.shoreline_wse_m);
  }
  // The scoped maximum covers exactly the sites' stencil stations.
  if (scoped.max_shoreline_wse_m != max_wse) return "max_shoreline_wse_m";
  return "";
}

TEST(Fastpath, ScopedEnginesMatchTheFullEngineOnTheirSitesOver1000Realizations) {
  constexpr std::size_t kCount = 1000;
  runtime::TaskPool pool;
  for (const Variant& v : config_variants()) {
    const RealizationEngine full(oahu(), oahu_assets(), v.config);
    std::vector<RealizationEngine> scoped;
    for (const std::vector<std::string>& scope : site_scopes()) {
      scoped.push_back(full.scoped(scope));
      ASSERT_EQ(scoped.back().assets().size(), scope.size()) << v.name;
    }
    // The scoped engine is its own oracle's equal too.
    expect_bit_identical(scoped[0].run(3), scoped[0].run_reference(3),
                         std::string(v.name) + " scoped reference");

    std::atomic<std::size_t> mismatches{0};
    std::atomic<std::size_t> wind_failures{0};
    std::mutex mutex;
    std::vector<std::string> messages;
    pool.parallel_for_each(kCount, 8, [&](std::size_t i) {
      const HurricaneRealization want = full.run(i);
      for (std::size_t s = 0; s < scoped.size(); ++s) {
        const HurricaneRealization got = scoped[s].run(i);
        wind_failures += got.wind_damage_count();
        const std::string why = scoped_difference(want, got);
        if (why.empty()) continue;
        if (++mismatches <= 5) {
          const std::lock_guard<std::mutex> lock(mutex);
          messages.push_back(std::string(v.name) + " scope " +
                             std::to_string(s) + " realization " +
                             std::to_string(i) + ": " + why);
        }
      }
    });
    for (const std::string& m : messages) ADD_FAILURE() << m;
    EXPECT_EQ(mismatches.load(), 0u) << v.name;
    if (v.config.fragility.enabled) {
      // The draw-order check above must have seen damaged assets.
      EXPECT_GT(wind_failures.load(), 0u);
    }
  }
}

TEST(Fastpath, RaisingTheEnvelopeOutsideTheScopeMovesNoScopedValue) {
  constexpr std::uint64_t kCount = 40;
  for (const Variant& v : config_variants()) {
    const RealizationEngine full(oahu(), oahu_assets(), v.config);
    const storm::TrackGenerator generator(v.config.ensemble);
    const geo::EnuProjection& proj = full.terrain().projection();
    const std::size_t nodes = full.coastal_mesh().mesh.node_count();
    std::vector<RealizationEngine> scoped;
    std::vector<std::vector<char>> inside;
    for (const std::vector<std::string>& scope : site_scopes()) {
      scoped.push_back(full.scoped(scope));
      inside.emplace_back(nodes, 0);
      for (const mesh::NodeId n : scoped.back().bindings().active_nodes()) {
        inside.back()[n] = 1;
      }
    }

    std::vector<bool> moved(scoped.size(), false);
    mesh::NodeField envelope;
    surge::RealizationScratch exact;
    surge::RealizationScratch raised;
    std::vector<surge::AssetImpact> exact_impacts;
    std::vector<surge::AssetImpact> raised_impacts;
    for (std::uint64_t i = 0; i < kCount; ++i) {
      const storm::StormTrack track =
          generator.generate(v.config.base_seed, i);
      full.bindings().accumulate_envelope(track, proj, envelope);
      for (std::size_t s = 0; s < scoped.size(); ++s) {
        exact.envelope = envelope;
        raised.envelope = envelope;
        for (std::size_t n = 0; n < nodes; ++n) {
          if (!inside[s][n]) raised.envelope[n] += 100.0;
        }
        scoped[s].shoreline_wse(exact.envelope, exact);
        scoped[s].shoreline_wse(raised.envelope, raised);
        moved[s] = moved[s] || exact.shore_wse != raised.shore_wse;
        scoped[s].bindings().impacts_into(exact.shore_wse, exact_impacts);
        scoped[s].bindings().impacts_into(raised.shore_wse, raised_impacts);
        for (std::size_t k = 0; k < exact_impacts.size(); ++k) {
          const std::string tag = std::string(v.name) + " scope " +
                                  std::to_string(s) + " realization " +
                                  std::to_string(i) + " " +
                                  exact_impacts[k].asset_id;
          EXPECT_EQ(bits(exact_impacts[k].shoreline_wse_m),
                    bits(raised_impacts[k].shoreline_wse_m))
              << tag;
          EXPECT_EQ(bits(exact_impacts[k].inundation_depth_m),
                    bits(raised_impacts[k].inundation_depth_m))
              << tag;
        }
      }
    }
    // Non-vacuous: the raise did reach stations the scope does not read.
    for (std::size_t s = 0; s < scoped.size(); ++s) {
      EXPECT_TRUE(moved[s]) << v.name << " scope " << s;
    }
  }
}

TEST(Fastpath, ScopedBindingsKeepOnlyWhatTheirSitesRead) {
  namespace ids = scada::oahu_ids;
  const RealizationEngine full(oahu(), oahu_assets(), {});
  const std::vector<std::vector<std::string>> scopes = site_scopes();
  const RealizationEngine paper = full.scoped(scopes[0]);
  const RealizationEngine five = full.scoped(scopes[1]);

  // Shared mesh; active sets nest strictly: paper within five within full.
  EXPECT_EQ(&paper.coastal_mesh(), &full.coastal_mesh());
  const auto& a = paper.bindings().active_nodes();
  const auto& b = five.bindings().active_nodes();
  const auto& c = full.bindings().active_nodes();
  EXPECT_GT(a.size(), 0u);
  EXPECT_LT(a.size(), b.size());
  EXPECT_LT(b.size(), c.size());
  EXPECT_TRUE(std::includes(b.begin(), b.end(), a.begin(), a.end()));
  EXPECT_TRUE(std::includes(c.begin(), c.end(), b.begin(), b.end()));

  // Assets keep the full engine's order and stencils; the scope reads
  // exactly their stations.
  std::vector<std::string> ids_in_order;
  std::vector<std::size_t> stations;
  for (std::size_t k = 0; k < full.assets().size(); ++k) {
    const std::string& id = full.assets()[k].id;
    if (std::find(scopes[0].begin(), scopes[0].end(), id) == scopes[0].end()) {
      continue;
    }
    ids_in_order.push_back(id);
    stations.push_back(full.bindings().stencils()[k].station);
  }
  std::sort(stations.begin(), stations.end());
  stations.erase(std::unique(stations.begin(), stations.end()),
                 stations.end());
  ASSERT_EQ(paper.assets().size(), ids_in_order.size());
  for (std::size_t k = 0; k < ids_in_order.size(); ++k) {
    EXPECT_EQ(paper.assets()[k].id, ids_in_order[k]);
  }
  EXPECT_EQ(paper.bindings().read_stations(), stations);
  EXPECT_EQ(full.bindings().read_stations().size(),
            full.coastal_mesh().stations.size());

  // A site outside the scope throws; an unknown id is simply not kept.
  const HurricaneRealization r = paper.run(0);
  EXPECT_NO_THROW(r.asset_failed(ids::kHonoluluCc));
  EXPECT_THROW(r.asset_failed(ids::kKaheCc), Error);
  EXPECT_TRUE(full.scoped({"no-such-asset"}).assets().empty());
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
