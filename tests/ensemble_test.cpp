// Determinism and cache-correctness tests for the EnsembleRunner — the
// acceptance gate of the parallel runtime: at any --jobs value the outcome
// histograms of both production shapes (the fused analyze_resumable stream
// and the materialized CaseStudyRunner batch) must be bit-identical to the
// serial reference for all five paper configurations x four threat
// scenarios x multiple seeds, both shapes must share one fault surface, and
// the cache-hit path must reproduce the cold path exactly (including when
// the hit comes from disk, across runner instances).
//
// CT_TEST_JOBS adds one extra thread count to the matrix (CI runs the
// suite at 1 and 8).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/case_study.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "runtime/ensemble_runner.h"
#include "scada/oahu.h"
#include "service/exec.h"
#include "surge/realization.h"
#include "terrain/oahu.h"
#include "threat/scenario.h"
#include "util/error.h"
#include "util/stats.h"

namespace ct {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kRealizations = 40;  // small but flood-bearing
constexpr std::uint64_t kSeeds[] = {20220627, 7, 424242};

std::vector<unsigned> job_counts() {
  std::vector<unsigned> jobs = {2, 4, 8};
  if (const char* env = std::getenv("CT_TEST_JOBS")) {
    const unsigned long n = std::strtoul(env, nullptr, 10);
    if (n > 0) jobs.push_back(static_cast<unsigned>(n));
  }
  return jobs;
}

runtime::EnsembleOptions make_options(unsigned jobs, bool cache = false) {
  runtime::EnsembleOptions options;
  options.jobs = jobs;
  options.chunk = 7;  // ragged chunking: exercises the merge order
  options.cache = cache;
  return options;
}

surge::RealizationEngine make_engine(std::uint64_t seed) {
  surge::RealizationConfig config;
  config.base_seed = seed;
  return surge::RealizationEngine(terrain::make_oahu_terrain(),
                                  scada::oahu_topology().exposed_assets(),
                                  config);
}

void expect_same(const core::ScenarioResult& a, const core::ScenarioResult& b,
                 const std::string& context) {
  for (const auto s :
       {threat::OperationalState::kGreen, threat::OperationalState::kOrange,
        threat::OperationalState::kRed, threat::OperationalState::kGray}) {
    EXPECT_EQ(a.outcomes.count(s), b.outcomes.count(s)) << context;
  }
  EXPECT_EQ(a.outcomes.total(), b.outcomes.total()) << context;
}

std::string cell_label(const core::SweepCell& cell) {
  return cell.config->name + " / " +
         std::string(threat::scenario_name(cell.scenario));
}

/// The full paper matrix: 5 configurations x 4 scenarios x 3 seeds, at
/// jobs {1, 2, 4, 8, CT_TEST_JOBS}, through the two paths production runs —
/// the fused analyze_resumable stream (`ctctl analyze`, checkpointing off)
/// and CaseStudyRunner::run over the guarded batch — against the serial
/// AnalysisPipeline::analyze over the engine's serial run_batch.
TEST(EnsembleDeterminismTest, ParallelMatchesSerialAcrossPaperMatrix) {
  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  const core::AnalysisPipeline pipeline;
  std::vector<core::SweepCell> cells;
  for (const threat::ThreatScenario scenario : threat::all_scenarios()) {
    for (const auto& config : configs) {
      cells.push_back(core::SweepCell{&config, scenario});
    }
  }
  std::vector<unsigned> jobs_matrix = job_counts();
  jobs_matrix.insert(jobs_matrix.begin(), 1u);

  for (const std::uint64_t seed : kSeeds) {
    const surge::RealizationEngine engine = make_engine(seed);
    const std::vector<surge::HurricaneRealization> reference =
        engine.run_batch(kRealizations);
    std::vector<core::ScenarioResult> want;
    for (const core::SweepCell& cell : cells) {
      want.push_back(pipeline.analyze(*cell.config, cell.scenario, reference));
    }
    const std::string digest =
        runtime::EnsembleRunner::digest_engine_batch(engine, kRealizations);

    for (const unsigned jobs : jobs_matrix) {
      const std::string at =
          " / seed " + std::to_string(seed) + " / jobs " + std::to_string(jobs);

      runtime::EnsembleRunner runner(make_options(jobs));
      const core::ResumableAnalysis fused = pipeline.analyze_resumable(
          cells, runtime::fixed_engine(engine), kRealizations, runner, digest,
          runtime::CheckpointOptions{});
      ASSERT_EQ(fused.results.size(), cells.size());
      EXPECT_EQ(fused.executed, kRealizations) << at;

      core::CaseStudyOptions options;
      options.realizations = kRealizations;
      options.realization.base_seed = seed;
      options.runtime = make_options(jobs);
      core::CaseStudyRunner study = core::make_oahu_case_study(options);

      for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::string context = cell_label(cells[i]) + at;
        expect_same(want[i], fused.results[i], "analyze_resumable " + context);
        expect_same(want[i], study.run(*cells[i].config, cells[i].scenario),
                    "CaseStudyRunner::run " + context);
      }
    }
  }
}

/// generate_guarded at the edges of the chunking: an empty range, one
/// realization on an oversubscribed pool, and a short serial batch equal
/// to the engine's own serial loop.
TEST(EnsembleDeterminismTest, GenerateGuardedDegenerateCounts) {
  const surge::RealizationEngine engine = make_engine(kSeeds[0]);
  runtime::EnsembleRunner wide(make_options(8));
  const runtime::GeneratedBatch empty = wide.generate_guarded(engine, 0);
  EXPECT_TRUE(empty.realizations.empty());
  EXPECT_TRUE(empty.complete());
  EXPECT_EQ(wide.generate_guarded(engine, 1).realizations.size(), 1u);

  runtime::EnsembleRunner serial(make_options(1));
  const runtime::GeneratedBatch three = serial.generate_guarded(engine, 3);
  const std::vector<surge::HurricaneRealization> want = engine.run_batch(3);
  ASSERT_EQ(three.realizations.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(three.realizations[i].index, want[i].index);
    EXPECT_EQ(three.realizations[i].max_shoreline_wse_m,
              want[i].max_shoreline_wse_m);
  }
}

/// A cache hit must reproduce the cold result exactly and must be flagged.
TEST(EnsembleCacheTest, WarmHitIsByteIdenticalToColdPath) {
  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  const core::AnalysisPipeline pipeline;
  const surge::RealizationEngine engine = make_engine(kSeeds[0]);

  runtime::EnsembleRunner runner(make_options(4, /*cache=*/true));
  const runtime::GeneratedBatch batch =
      runner.generate_guarded(engine, kRealizations);
  const runtime::EnsembleRunner::BatchFn view = [&] { return batch.view(); };
  const std::string digest =
      runtime::EnsembleRunner::digest_realizations(batch.realizations);

  for (const auto& config : configs) {
    for (const threat::ThreatScenario scenario : threat::all_scenarios()) {
      const core::ScenarioResult cold =
          pipeline.analyze_lazy(config, scenario, view, runner, digest);
      const core::ScenarioResult warm =
          pipeline.analyze_lazy(config, scenario, view, runner, digest);
      EXPECT_FALSE(cold.from_cache);
      EXPECT_TRUE(warm.from_cache) << config.name;
      expect_same(cold, warm, config.name);
    }
  }
  const auto stats = runner.cache_stats();
  EXPECT_EQ(stats.hits, configs.size() * threat::all_scenarios().size());
}

/// On a hit the lazy path must not materialize the ensemble at all.
TEST(EnsembleCacheTest, LazyProviderSkippedOnHit) {
  const surge::RealizationEngine engine = make_engine(kSeeds[0]);
  runtime::EnsembleRunner runner(make_options(2, /*cache=*/true));
  const runtime::GeneratedBatch batch =
      runner.generate_guarded(engine, kRealizations);

  int provider_calls = 0;
  const runtime::EnsembleRunner::BatchFn provide = [&] {
    ++provider_calls;
    return batch.view();
  };
  const runtime::EnsembleRunner::OutcomeFn outcome =
      [](const surge::HurricaneRealization& r) {
        return r.impacts.empty() ? 0 : 1;
      };
  const std::string key = "ab12cd34ab12cd34ab12cd34ab12cd34";

  const auto cold = runner.count_outcomes_guarded(provide, outcome, key);
  EXPECT_EQ(provider_calls, 1);
  EXPECT_FALSE(cold.counts.from_cache);

  const auto warm = runner.count_outcomes_guarded(provide, outcome, key);
  EXPECT_EQ(provider_calls, 1) << "hit must not materialize the ensemble";
  EXPECT_TRUE(warm.counts.from_cache);
  EXPECT_EQ(warm.counts.counts, cold.counts.counts);
  EXPECT_EQ(warm.counts.total, cold.counts.total);
}

/// Disk cache: a second runner (fresh memory) in the same cache dir gets
/// the result without recomputing — the cross-process warm-rerun story.
TEST(EnsembleCacheTest, DiskCacheSharedAcrossRunnerInstances) {
  const fs::path dir = fs::path(::testing::TempDir()) / "ct_ensemble_disk";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  const core::AnalysisPipeline pipeline;
  const surge::RealizationEngine engine = make_engine(kSeeds[0]);
  const auto scenario = threat::ThreatScenario::kHurricaneIntrusionIsolation;

  runtime::EnsembleOptions options = make_options(2, /*cache=*/true);
  options.disk_cache = true;
  options.cache_dir = dir.string();

  const std::string digest =
      runtime::EnsembleRunner::digest_engine_batch(engine, kRealizations);
  core::ScenarioResult cold;
  {
    runtime::EnsembleRunner writer(options);
    const runtime::GeneratedBatch batch =
        writer.generate_guarded(engine, kRealizations);
    cold = pipeline.analyze_lazy(
        configs[0], scenario, [&] { return batch.view(); }, writer, digest);
    EXPECT_FALSE(cold.from_cache);
  }

  // The reader never generates: a hit must not call the batch producer.
  runtime::EnsembleRunner reader(options);
  const std::vector<surge::HurricaneRealization> none;
  const core::ScenarioResult warm = pipeline.analyze_lazy(
      configs[0], scenario,
      [&] {
        ADD_FAILURE() << "disk hit materialized the batch";
        return runtime::BatchView{&none, nullptr, 0};
      },
      reader, digest);
  EXPECT_TRUE(warm.from_cache);
  expect_same(cold, warm, "disk round-trip");
  EXPECT_EQ(reader.cache_stats().disk_hits, 1u);

  fs::remove_all(dir);
}

/// The cheap engine-batch digest must identify the ensemble: same knobs ->
/// same key, any knob change (seed, SLR, count) -> different key, and it
/// must agree with itself without generating the batch.
TEST(EnsembleCacheTest, EngineBatchDigestTracksKnobs) {
  const auto base = runtime::EnsembleRunner::digest_engine_batch(
      make_engine(kSeeds[0]), kRealizations);
  EXPECT_EQ(base, runtime::EnsembleRunner::digest_engine_batch(
                      make_engine(kSeeds[0]), kRealizations));
  EXPECT_NE(base, runtime::EnsembleRunner::digest_engine_batch(
                      make_engine(kSeeds[1]), kRealizations));
  EXPECT_NE(base, runtime::EnsembleRunner::digest_engine_batch(
                      make_engine(kSeeds[0]), kRealizations + 1));

  surge::RealizationConfig slr;
  slr.base_seed = kSeeds[0];
  slr.sea_level_offset_m = 0.5;
  const surge::RealizationEngine slr_engine(
      terrain::make_oahu_terrain(), scada::oahu_topology().exposed_assets(),
      slr);
  EXPECT_NE(base, runtime::EnsembleRunner::digest_engine_batch(slr_engine,
                                                               kRealizations));
}

/// End-to-end through the CaseStudyRunner facade: run_configs at several
/// jobs values matches the serial runner, and a repeated run() is served
/// from the cache.
TEST(EnsembleCaseStudyTest, RunnerFacadeDeterministicAndCached) {
  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  const auto scenario = threat::ThreatScenario::kHurricaneIntrusion;

  core::CaseStudyOptions serial_options;
  serial_options.realizations = kRealizations;
  serial_options.runtime = make_options(1);
  core::CaseStudyRunner serial = core::make_oahu_case_study(serial_options);
  const auto want = serial.run_configs(configs, scenario);

  for (const unsigned jobs : job_counts()) {
    core::CaseStudyOptions options;
    options.realizations = kRealizations;
    options.runtime = make_options(jobs, /*cache=*/true);
    core::CaseStudyRunner runner = core::make_oahu_case_study(options);
    const auto got = runner.run_configs(configs, scenario);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      expect_same(want[i], got[i],
                  configs[i].name + " jobs " + std::to_string(jobs));
    }
    const auto again = runner.run(configs[0], scenario);
    EXPECT_TRUE(again.from_cache);
    expect_same(want[0], again, "cached rerun");
  }
}

/// run() and run_all_resumable() key the result cache identically: a cell
/// run() computed is served whole by the fused sweep, and the sweep's own
/// stores serve later run() calls.
TEST(EnsembleCaseStudyTest, RunAndResumableShareCacheKeys) {
  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  const auto scenario = threat::ThreatScenario::kHurricaneIsolation;
  core::CaseStudyOptions options;
  options.realizations = 20;
  options.runtime = make_options(2, /*cache=*/true);
  core::CaseStudyRunner runner = core::make_oahu_case_study(options);

  const core::ScenarioResult first = runner.run(configs[0], scenario);
  EXPECT_FALSE(first.from_cache);

  const core::ResumableAnalysis sweep =
      runner.run_all_resumable(configs, {scenario}, {});
  ASSERT_EQ(sweep.results.size(), configs.size());
  EXPECT_EQ(sweep.cached_cells, 1u);
  EXPECT_TRUE(sweep.results[0].from_cache);
  expect_same(first, sweep.results[0], "run() -> run_all_resumable");
  for (std::size_t i = 1; i < configs.size(); ++i) {
    EXPECT_FALSE(sweep.results[i].from_cache) << configs[i].name;
  }

  const core::ScenarioResult later = runner.run(configs[4], scenario);
  EXPECT_TRUE(later.from_cache);
  expect_same(sweep.results[4], later, "run_all_resumable -> run()");
}

/// The analyze sweep generates from an engine scoped to its sites, while
/// run() reads the full engine's batch; both are one ensemble under one
/// key. A cell the scoped sweep stored is a hit with identical counts for
/// run(), a cell run() stored is a hit for the sweep, and every count
/// equals an uncached full-batch run.
TEST(EnsembleCaseStudyTest, ScopedSweepAndFullBatchServeEachOthersCells) {
  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  const auto all = threat::all_scenarios();
  const std::vector<threat::ThreatScenario> scenarios(all.begin(), all.end());
  core::CaseStudyOptions options;
  options.realizations = 200;
  options.runtime = make_options(4, /*cache=*/true);
  core::CaseStudyOptions uncached = options;
  uncached.runtime = make_options(4);

  core::CaseStudyRunner reference = core::make_oahu_case_study(uncached);
  core::CaseStudyRunner swept = core::make_oahu_case_study(options);
  core::CaseStudyRunner batched = core::make_oahu_case_study(options);
  const core::ResumableAnalysis sweep =
      swept.run_all_resumable(configs, scenarios, {});
  ASSERT_EQ(sweep.results.size(), configs.size() * scenarios.size());
  EXPECT_EQ(sweep.cached_cells, 0u);

  std::size_t cell = 0;
  std::size_t flooded = 0;
  for (const threat::ThreatScenario scenario : scenarios) {
    for (const scada::Configuration& config : configs) {
      const std::string label =
          config.name + " / " + std::string(threat::scenario_name(scenario));
      const core::ScenarioResult want = reference.run(config, scenario);
      EXPECT_FALSE(want.from_cache) << label;
      expect_same(want, sweep.results[cell], "scoped sweep " + label);
      const core::ScenarioResult hit = swept.run(config, scenario);
      EXPECT_TRUE(hit.from_cache) << label;
      expect_same(want, hit, "sweep -> run() " + label);
      EXPECT_FALSE(batched.run(config, scenario).from_cache) << label;
      flooded += want.outcomes.total() -
                 want.outcomes.count(threat::OperationalState::kGreen);
      ++cell;
    }
  }
  EXPECT_GT(flooded, 0u) << "the ensemble must exercise flooded sites";

  const core::ResumableAnalysis served =
      batched.run_all_resumable(configs, scenarios, {});
  EXPECT_EQ(served.cached_cells, sweep.results.size());
  EXPECT_EQ(served.executed, 0u);
  for (std::size_t i = 0; i < sweep.results.size(); ++i) {
    expect_same(sweep.results[i], served.results[i],
                "run() -> sweep cell " + std::to_string(i));
  }
}

/// The analyze report over the scoped sweep is byte-identical at --jobs 1
/// and --jobs 8.
TEST(EnsembleCaseStudyTest, AnalyzeReportIsByteIdenticalAtJobs1And8) {
  service::Request request;
  request.kind = service::RequestKind::kAnalyze;
  request.realizations = 200;
  request.no_cache = true;
  std::vector<std::string> reports;
  for (const unsigned jobs : {1u, 8u}) {
    core::CaseStudyOptions defaults;
    defaults.runtime = make_options(jobs);
    defaults.runtime.fault_spec = "none";
    auto runner = service::make_case_study(request, defaults, nullptr);
    const service::ExecOutcome out = service::execute_request(request, *runner);
    EXPECT_EQ(out.exit_code, 0) << "jobs " << jobs;
    reports.push_back(out.output);
  }
  EXPECT_FALSE(reports[0].empty());
  EXPECT_EQ(reports[0], reports[1]);
}

// --- fault isolation (PR 6) -------------------------------------------------

/// Options for the guarded paths: fault_spec "none" (not "") so a CT_FAULT
/// set by a CI fault-matrix job cannot leak into clean-path expectations.
runtime::EnsembleOptions guarded_options(unsigned jobs, const char* spec,
                                         unsigned retries) {
  runtime::EnsembleOptions options = make_options(jobs);
  options.fault_spec = spec;
  options.max_retries = retries;
  return options;
}

int simple_outcome(const surge::HurricaneRealization& r) {
  return r.impacts.empty() ? 0 : (r.impacts.size() > 2 ? 2 : 1);
}

/// The acceptance gate of the quarantine machinery: the ledger AND the
/// partial distribution must be bit-identical at any --jobs value.
TEST(EnsembleGuardedTest, QuarantineDeterministicAcrossJobs) {
  const surge::RealizationEngine engine = make_engine(kSeeds[0]);
  constexpr const char* kSpec = "throw:every=7";  // fires on every attempt

  runtime::EnsembleRunner serial(guarded_options(1, kSpec, 1));
  const runtime::GeneratedBatch reference =
      serial.generate_guarded(engine, kRealizations);
  const runtime::EnsembleReport reference_report =
      serial.count_outcomes_guarded([&] { return reference.view(); },
                                    simple_outcome, "");

  // Indices 0, 7, 14, 21, 28, 35 quarantine after 1 + 1 attempts.
  ASSERT_EQ(reference.ledger.failures.size(), 6u);
  EXPECT_EQ(reference.ledger.retries, 6u);
  for (std::size_t i = 0; i < reference.ledger.failures.size(); ++i) {
    const runtime::FailureRecord& f = reference.ledger.failures[i];
    EXPECT_EQ(f.realization, i * 7);
    EXPECT_EQ(f.seed, kSeeds[0]);
    EXPECT_EQ(f.attempts, 2u);
    EXPECT_EQ(f.code, util::ErrorCode::kFaultInjected);
  }
  EXPECT_EQ(reference.realizations.size(), kRealizations - 6);

  for (const unsigned jobs : job_counts()) {
    runtime::EnsembleRunner parallel(guarded_options(jobs, kSpec, 1));
    const runtime::GeneratedBatch batch =
        parallel.generate_guarded(engine, kRealizations);
    ASSERT_EQ(batch.realizations.size(), reference.realizations.size())
        << "jobs " << jobs;
    for (std::size_t i = 0; i < reference.realizations.size(); ++i) {
      EXPECT_EQ(batch.realizations[i].index, reference.realizations[i].index);
      EXPECT_EQ(batch.realizations[i].max_shoreline_wse_m,
                reference.realizations[i].max_shoreline_wse_m);
    }
    ASSERT_EQ(batch.ledger.failures.size(), reference.ledger.failures.size());
    for (std::size_t i = 0; i < reference.ledger.failures.size(); ++i) {
      EXPECT_EQ(batch.ledger.failures[i].realization,
                reference.ledger.failures[i].realization);
      EXPECT_EQ(batch.ledger.failures[i].attempts,
                reference.ledger.failures[i].attempts);
    }
    const runtime::EnsembleReport report = parallel.count_outcomes_guarded(
        [&] { return batch.view(); }, simple_outcome, "");
    EXPECT_EQ(report.counts.counts, reference_report.counts.counts)
        << "jobs " << jobs;
    EXPECT_EQ(report.counts.total, reference_report.counts.total);
  }
}

TEST(EnsembleGuardedTest, RetryHealsFirstAttemptFault) {
  const surge::RealizationEngine engine = make_engine(kSeeds[0]);
  const std::vector<surge::HurricaneRealization> reference =
      engine.run_batch(kRealizations);

  // The rule fires only on attempt 1: one retry (same seed) heals every
  // injected failure, so the batch is complete AND bit-identical.
  runtime::EnsembleRunner runner(guarded_options(4, "throw:every=5,attempts=1", 2));
  const runtime::GeneratedBatch batch =
      runner.generate_guarded(engine, kRealizations);
  EXPECT_TRUE(batch.complete());
  EXPECT_EQ(batch.ledger.retries, 8u);  // indices 0, 5, ..., 35 healed
  ASSERT_EQ(batch.realizations.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(batch.realizations[i].index, reference[i].index);
    EXPECT_EQ(batch.realizations[i].peak_wind_ms, reference[i].peak_wind_ms);
    EXPECT_EQ(batch.realizations[i].max_shoreline_wse_m,
              reference[i].max_shoreline_wse_m);
  }
}

TEST(EnsembleGuardedTest, NanGuardTripsAsTypedNumericFailure) {
  const surge::RealizationEngine engine = make_engine(kSeeds[0]);
  runtime::EnsembleRunner runner(guarded_options(2, "nan:every=9", 0));
  const runtime::GeneratedBatch batch =
      runner.generate_guarded(engine, kRealizations);
  // Indices 0, 9, 18, 27, 36: the planted NaN must fail the realization
  // (typed, with provenance), never poison the distribution.
  ASSERT_EQ(batch.ledger.failures.size(), 5u);
  for (const runtime::FailureRecord& f : batch.ledger.failures) {
    EXPECT_EQ(f.code, util::ErrorCode::kNumeric);
    EXPECT_EQ(f.origin, "surge");
    EXPECT_EQ(f.seed, kSeeds[0]);
  }
  for (const surge::HurricaneRealization& r : batch.realizations) {
    EXPECT_TRUE(std::isfinite(r.max_shoreline_wse_m));
  }
}

TEST(EnsembleGuardedTest, WatchdogTimesOutDelayedRealizations) {
  const surge::RealizationEngine engine = make_engine(kSeeds[0]);
  runtime::EnsembleOptions options =
      guarded_options(2, "delay:every=10,ms=500", 0);
  options.task_timeout = std::chrono::milliseconds(40);
  runtime::EnsembleRunner runner(options);
  const runtime::GeneratedBatch batch = runner.generate_guarded(engine, 20);
  // Indices 0 and 10 stall past the deadline; the cooperative delay polls
  // the token, so each attempt unwinds as a typed timeout.
  ASSERT_EQ(batch.ledger.failures.size(), 2u);
  EXPECT_EQ(batch.ledger.failures[0].realization, 0u);
  EXPECT_EQ(batch.ledger.failures[1].realization, 10u);
  for (const runtime::FailureRecord& f : batch.ledger.failures) {
    EXPECT_EQ(f.code, util::ErrorCode::kTimeout);
  }
  EXPECT_EQ(batch.realizations.size(), 18u);
}

TEST(EnsembleGuardedTest, PartialResultIsNeverCached) {
  const surge::RealizationEngine engine = make_engine(kSeeds[0]);
  const std::string key = "fe12fe12fe12fe12fe12fe12fe12fe12";

  runtime::EnsembleOptions degraded_options =
      guarded_options(2, "throw:every=7", 0);
  degraded_options.cache = true;
  runtime::EnsembleRunner degraded(degraded_options);
  const runtime::GeneratedBatch batch =
      degraded.generate_guarded(engine, kRealizations);
  // The batch view carries the quarantine ledger; counting over it keeps
  // the generation failures in the report.
  const runtime::EnsembleRunner::BatchFn batch_fn = [&]() {
    return batch.view();
  };
  const runtime::EnsembleReport first =
      degraded.count_outcomes_guarded(batch_fn, simple_outcome, key);
  EXPECT_TRUE(first.degraded());
  EXPECT_FALSE(first.counts.from_cache);
  // A degraded result must NOT have been stored under the full-ensemble
  // key: the rerun recomputes instead of serving the partial histogram.
  const runtime::EnsembleReport second =
      degraded.count_outcomes_guarded(batch_fn, simple_outcome, key);
  EXPECT_FALSE(second.counts.from_cache);

  // A clean runner stores under the same key and the hit is complete.
  runtime::EnsembleOptions clean_options = guarded_options(2, "none", 0);
  clean_options.cache = true;
  runtime::EnsembleRunner clean(clean_options);
  const runtime::GeneratedBatch full =
      clean.generate_guarded(engine, kRealizations);
  const runtime::EnsembleRunner::BatchFn full_fn = [&] { return full.view(); };
  const runtime::EnsembleReport cold =
      clean.count_outcomes_guarded(full_fn, simple_outcome, key);
  EXPECT_FALSE(cold.counts.from_cache);
  const runtime::EnsembleReport warm =
      clean.count_outcomes_guarded(full_fn, simple_outcome, key);
  EXPECT_TRUE(warm.counts.from_cache);
  EXPECT_EQ(warm.attempted, warm.completed);
  EXPECT_EQ(warm.counts.counts, cold.counts.counts);
}

TEST(EnsembleGuardedTest, MassBoundBracketsTrueProbability) {
  const surge::RealizationEngine engine = make_engine(kSeeds[0]);

  // Ground truth: the clean full ensemble.
  runtime::EnsembleRunner clean(guarded_options(2, "none", 0));
  const runtime::GeneratedBatch full =
      clean.generate_guarded(engine, kRealizations);
  const runtime::EnsembleReport truth = clean.count_outcomes_guarded(
      [&] { return full.view(); }, simple_outcome, "");

  runtime::EnsembleRunner degraded(guarded_options(2, "throw:every=7", 0));
  const runtime::GeneratedBatch batch =
      degraded.generate_guarded(engine, kRealizations);
  const runtime::EnsembleReport partial = degraded.count_outcomes_guarded(
      [&]() { return batch.view(); }, simple_outcome, "");
  ASSERT_TRUE(partial.degraded());
  EXPECT_EQ(partial.attempted, kRealizations);
  EXPECT_EQ(partial.completed, kRealizations - 6);

  for (std::size_t bucket = 0; bucket < 4; ++bucket) {
    const util::Interval bound = partial.mass_bound(bucket);
    EXPECT_GE(bound.lo, 0.0);
    EXPECT_LE(bound.hi, 1.0);
    EXPECT_LE(bound.lo, bound.hi);
    const double true_p =
        static_cast<double>(truth.counts.counts[bucket]) /
        static_cast<double>(truth.counts.total);
    EXPECT_TRUE(bound.contains(true_p))
        << "bucket " << bucket << ": true " << true_p << " not in ["
        << bound.lo << ", " << bound.hi << "]";
  }

  // A clean report's bound still contains its own point estimate.
  for (std::size_t bucket = 0; bucket < 4; ++bucket) {
    const util::Interval bound = truth.mass_bound(bucket);
    const double p = static_cast<double>(truth.counts.counts[bucket]) /
                     static_cast<double>(truth.counts.total);
    EXPECT_TRUE(bound.contains(p)) << "bucket " << bucket;
  }
}

/// One fault surface, two shapes: under each CT_FAULT profile the fused
/// run_resumable stream and generate_guarded + count_outcomes_guarded must
/// quarantine the same indices with the same codes and attempt counts and
/// leave the same survivor histogram — at jobs 1 and 8.
TEST(EnsembleGuardedTest, FaultSurfaceIdenticalOnBothShapes) {
  constexpr std::size_t kCount = 30;
  const surge::RealizationEngine engine = make_engine(kSeeds[0]);
  struct Profile {
    const char* spec;
    std::size_t quarantined;
    std::chrono::milliseconds timeout{0};
  };
  const Profile profiles[] = {
      {"throw:every=7", 5},             // 0, 7, 14, 21, 28
      {"nan:every=25,offset=3", 2},     // 3, 28
      {"throw:every=5,attempts=1", 0},  // the retry heals every index
      // 0, 10, 20 stall past the watchdog and time out
      {"delay:every=10,ms=50", 3, std::chrono::milliseconds(40)},
  };
  runtime::SweepSpec spec;
  spec.digest = "fault-surface";
  spec.count = kCount;
  spec.series = {""};  // no cache key: both shapes must compute

  for (const Profile& profile : profiles) {
    for (const unsigned jobs : {1u, 8u}) {
      const std::string context =
          std::string(profile.spec) + " jobs " + std::to_string(jobs);
      runtime::EnsembleOptions options =
          guarded_options(jobs, profile.spec, 1);
      options.task_timeout = profile.timeout;

      runtime::EnsembleRunner batch_runner(options);
      const runtime::GeneratedBatch batch =
          batch_runner.generate_guarded(engine, kCount);
      const runtime::EnsembleReport materialized =
          batch_runner.count_outcomes_guarded([&] { return batch.view(); },
                                              simple_outcome, "");

      runtime::EnsembleRunner stream_runner(options);
      const runtime::ResumableReport stream = stream_runner.run_resumable(
          runtime::fixed_engine(engine), spec,
          [](std::size_t, const surge::HurricaneRealization& r) {
            return simple_outcome(r);
          },
          runtime::CheckpointOptions{});
      ASSERT_EQ(stream.series.size(), 1u);
      const runtime::EnsembleReport& fused = stream.series[0];

      ASSERT_EQ(materialized.failures.size(), profile.quarantined) << context;
      ASSERT_EQ(fused.failures.size(), materialized.failures.size())
          << context;
      for (std::size_t i = 0; i < fused.failures.size(); ++i) {
        EXPECT_EQ(fused.failures[i].realization,
                  materialized.failures[i].realization)
            << context;
        EXPECT_EQ(fused.failures[i].code, materialized.failures[i].code)
            << context;
        EXPECT_EQ(fused.failures[i].attempts,
                  materialized.failures[i].attempts)
            << context;
      }
      EXPECT_EQ(fused.retries, materialized.retries) << context;
      EXPECT_EQ(fused.attempted, materialized.attempted) << context;
      EXPECT_EQ(fused.completed, materialized.completed) << context;
      EXPECT_EQ(fused.counts.counts, materialized.counts.counts) << context;
      EXPECT_EQ(fused.counts.total, materialized.counts.total) << context;
    }
  }
}

/// End to end through the CaseStudyRunner facade: a fault profile degrades
/// the run gracefully — partial distribution, quarantine accounting — and
/// stays bit-identical across jobs values.
TEST(EnsembleGuardedTest, CaseStudyDegradesGracefully) {
  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  const auto scenario = threat::ThreatScenario::kHurricaneIntrusion;

  const auto run = [&](unsigned jobs) {
    core::CaseStudyOptions options;
    options.realizations = 26;
    options.runtime = guarded_options(jobs, "throw:every=13", 1);
    core::CaseStudyRunner runner = core::make_oahu_case_study(options);
    return runner.run(configs[0], scenario);
  };

  const core::ScenarioResult serial = run(1);
  EXPECT_TRUE(serial.degraded());
  EXPECT_EQ(serial.attempted, 26u);
  EXPECT_EQ(serial.completed, 24u);
  ASSERT_EQ(serial.failures.size(), 2u);  // indices 0 and 13
  EXPECT_EQ(serial.failures[0].realization, 0u);
  EXPECT_EQ(serial.failures[1].realization, 13u);
  EXPECT_EQ(serial.outcomes.total(), 24u);
  const util::Interval bound =
      serial.mass_bound(threat::OperationalState::kRed);
  EXPECT_LE(bound.lo, bound.hi);

  for (const unsigned jobs : job_counts()) {
    const core::ScenarioResult parallel = run(jobs);
    expect_same(serial, parallel, "degraded jobs " + std::to_string(jobs));
    ASSERT_EQ(parallel.failures.size(), serial.failures.size());
    for (std::size_t i = 0; i < serial.failures.size(); ++i) {
      EXPECT_EQ(parallel.failures[i].realization,
                serial.failures[i].realization);
    }
  }
}

// --- exit-code policy and failure summary -----------------------------------

core::ScenarioResult make_result(std::size_t attempted, std::size_t completed) {
  core::ScenarioResult r;
  r.config_name = "cfg";
  r.attempted = attempted;
  r.completed = completed;
  for (std::size_t i = completed; i < attempted; ++i) {
    runtime::FailureRecord f;
    f.realization = i;
    f.seed = 42;
    f.attempts = 3;
    f.code = util::ErrorCode::kFaultInjected;
    f.origin = "fault-injection";
    f.message = "injected";
    r.failures.push_back(std::move(f));
  }
  return r;
}

TEST(ExitCodePolicyTest, CleanDegradedAndEmptyRuns) {
  const std::vector<core::ScenarioResult> clean = {make_result(10, 10)};
  EXPECT_EQ(core::analysis_exit_code(clean, /*strict=*/false), 0);
  EXPECT_EQ(core::analysis_exit_code(clean, /*strict=*/true), 0);

  const std::vector<core::ScenarioResult> degraded = {make_result(10, 10),
                                                      make_result(10, 8)};
  EXPECT_EQ(core::analysis_exit_code(degraded, /*strict=*/false), 0);
  EXPECT_EQ(core::analysis_exit_code(degraded, /*strict=*/true), 3);

  // Nothing completed: even best-effort has no data — exit 4 wins.
  const std::vector<core::ScenarioResult> empty = {make_result(10, 0)};
  EXPECT_EQ(core::analysis_exit_code(empty, /*strict=*/false), 4);
  EXPECT_EQ(core::analysis_exit_code(empty, /*strict=*/true), 4);
}

TEST(ExitCodePolicyTest, FailureSummaryHasOneRowPerQuarantine) {
  const std::vector<core::ScenarioResult> results = {make_result(10, 10),
                                                     make_result(10, 7)};
  const util::TextTable table = core::failure_summary_table(results);
  EXPECT_EQ(table.row_count(), 3u);
  const std::string rendered = table.to_string();
  EXPECT_NE(rendered.find("fault-injected"), std::string::npos);
  EXPECT_NE(rendered.find("injected"), std::string::npos);
}

}  // namespace
}  // namespace ct
