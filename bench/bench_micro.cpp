// Microbenchmarks (google-benchmark) for the framework's hot paths: wind
// sampling, the surge envelope, a full hurricane realization, the analysis
// pipeline, the evaluators, and the ensemble runtime (task-pool dispatch,
// content digests, parallel outcome counting). These bound the cost of
// scaling the methodology (more realizations, finer meshes, larger
// ensembles).
//
// Before running the registered benchmarks, main() times one small
// end-to-end analyze_resumable sweep (generation included) serially, on the
// pool and cache-warm, and merges the measurement into BENCH_runtime.json
// (same record format as the figure benches).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <vector>

#include "core/chaos.h"
#include "core/evaluator.h"
#include "core/pipeline.h"
#include "figure_bench.h"
#include "mesh/coastal_builder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/ensemble_runner.h"
#include "runtime/task_pool.h"
#include "scada/oahu.h"
#include "service/protocol.h"
#include "sim/scada_des.h"
#include "storm/generator.h"
#include "storm/holland.h"
#include "surge/realization.h"
#include "terrain/oahu.h"
#include "threat/attacker.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"

using namespace ct;

namespace {

const terrain::Terrain& oahu() {
  static const auto terrain = terrain::make_oahu_terrain();
  return *terrain;
}

const surge::RealizationEngine& engine() {
  static const surge::RealizationEngine instance(
      terrain::make_oahu_terrain(), scada::oahu_topology().exposed_assets(),
      surge::RealizationConfig{});
  return instance;
}

runtime::EnsembleOptions runner_options(unsigned jobs, bool cache) {
  runtime::EnsembleOptions options;
  options.jobs = jobs;
  options.cache = cache;
  return options;
}

void BM_HollandWindSample(benchmark::State& state) {
  const storm::HollandWindField field;
  storm::VortexParams vortex;
  vortex.central_pressure_pa = 96800.0;
  std::size_t i = 0;
  for (auto _ : state) {
    const geo::Vec2 point{static_cast<double>(i % 100) * 1000.0, 20000.0};
    benchmark::DoNotOptimize(field.sample(vortex, {0, 0}, {0, 6}, point));
    ++i;
  }
}
BENCHMARK(BM_HollandWindSample);

void BM_TerrainElevation(benchmark::State& state) {
  std::size_t i = 0;
  for (auto _ : state) {
    const geo::Vec2 p{static_cast<double>(i % 200) * 200.0 - 20000.0,
                      static_cast<double>(i % 97) * 300.0 - 15000.0};
    benchmark::DoNotOptimize(oahu().elevation(p));
    ++i;
  }
}
BENCHMARK(BM_TerrainElevation);

void BM_CoastalMeshBuild(benchmark::State& state) {
  mesh::CoastalMeshConfig config;
  config.shore_spacing_m = 4000.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mesh::build_coastal_mesh(oahu(), config));
  }
}
BENCHMARK(BM_CoastalMeshBuild)->Unit(benchmark::kMillisecond);

/// The surge kernel: the envelope of one storm over the engine's active
/// nodes, into a reused field.
void BM_SurgeEnvelope(benchmark::State& state) {
  const storm::TrackGenerator generator{storm::TrackEnsembleConfig{}};
  const storm::StormTrack track = generator.generate(1, 0);
  mesh::NodeField envelope;
  for (auto _ : state) {
    engine().bindings().accumulate_envelope(
        track, engine().terrain().projection(), envelope);
    benchmark::DoNotOptimize(envelope.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SurgeEnvelope)->Unit(benchmark::kMillisecond);

void BM_FullRealization(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine().run(i++));
  }
}
BENCHMARK(BM_FullRealization)->Unit(benchmark::kMillisecond);

/// In-place shoreline smoothing over the frozen plan (the copy of the
/// source envelope is part of the measured loop but is trivial next to
/// the passes themselves).
void BM_ShorelineSmoothing(benchmark::State& state) {
  const auto& cm = engine().coastal_mesh();
  const auto& bindings = engine().bindings();
  const surge::RealizationConfig& config = engine().config();
  const storm::TrackGenerator generator{config.ensemble};
  const storm::StormTrack track = generator.generate(config.base_seed, 0);
  mesh::NodeField envelope;
  bindings.accumulate_envelope(track, engine().terrain().projection(),
                               envelope);
  mesh::NodeField field, scratch;
  for (auto _ : state) {
    field = envelope;
    mesh::shoreline_average_and_extend(cm, bindings.shoreline_plan(), field,
                                       scratch);
    benchmark::DoNotOptimize(field.data());
  }
}
BENCHMARK(BM_ShorelineSmoothing)->Unit(benchmark::kMicrosecond);

/// Asset binding: shoreline WSE -> per-asset impacts through the frozen
/// stencils (station lookup, decay, flood test).
void BM_AssetBind(benchmark::State& state) {
  const auto& bindings = engine().bindings();
  std::vector<double> shore_wse(engine().coastal_mesh().stations.size());
  for (std::size_t i = 0; i < shore_wse.size(); ++i) {
    shore_wse[i] = 0.5 + 0.001 * static_cast<double>(i % 700);
  }
  std::vector<surge::AssetImpact> impacts;
  for (auto _ : state) {
    bindings.impacts_into(shore_wse, impacts);
    benchmark::DoNotOptimize(impacts.data());
  }
}
BENCHMARK(BM_AssetBind)->Unit(benchmark::kMicrosecond);

void BM_PipelineOutcome(benchmark::State& state) {
  const auto realization = engine().run(0);
  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  const core::AnalysisPipeline pipeline;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.outcome_for(
        configs[i % configs.size()],
        threat::ThreatScenario::kHurricaneIntrusionIsolation, realization));
    ++i;
  }
}
BENCHMARK(BM_PipelineOutcome);

void BM_Evaluator(benchmark::State& state) {
  const auto config = scada::make_config_6_6_6("p", "b", "d");
  threat::SystemState s;
  s.site_status = {threat::SiteStatus::kUp, threat::SiteStatus::kIsolated,
                   threat::SiteStatus::kUp};
  s.intrusions = {1, 0, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::evaluate(config, s));
  }
}
BENCHMARK(BM_Evaluator);

void BM_GreedyAttack666(benchmark::State& state) {
  const auto config = scada::make_config_6_6_6("p", "b", "d");
  threat::SystemState base;
  base.site_status.assign(3, threat::SiteStatus::kUp);
  base.intrusions.assign(3, 0);
  const threat::GreedyWorstCaseAttacker attacker;
  for (auto _ : state) {
    benchmark::DoNotOptimize(attacker.attack(config, base, {1, 1}));
  }
}
BENCHMARK(BM_GreedyAttack666);

// --- ensemble runtime -------------------------------------------------------

/// Pure dispatch overhead of the work-stealing pool: trivial per-element
/// work, so the numbers are dominated by queueing, stealing, and the batch
/// barrier. Arg = worker threads (1 = the inline serial path).
void BM_TaskPoolDispatch(benchmark::State& state) {
  runtime::TaskPool pool(static_cast<unsigned>(state.range(0)));
  std::vector<std::uint64_t> out(1 << 14);
  for (auto _ : state) {
    pool.parallel_for_each(out.size(), 64, [&](std::size_t i) {
      out[i] = i * 0x9e3779b97f4a7c15ull;
    });
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_TaskPoolDispatch)->Arg(1)->Arg(4)->Unit(benchmark::kMicrosecond);

/// Content digest of a realization set — the cache-key cost a sweep pays
/// even on a hit, so it has to stay far below regeneration cost.
void BM_DigestRealizations(benchmark::State& state) {
  static const std::vector<surge::HurricaneRealization> rels = [] {
    std::vector<surge::HurricaneRealization> r;
    for (std::uint64_t i = 0; i < 8; ++i) r.push_back(engine().run(i));
    return r;
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        runtime::EnsembleRunner::digest_realizations(rels));
  }
}
BENCHMARK(BM_DigestRealizations);

/// Serving-mode framing overhead: encode + checksum + decode one
/// request-sized and one response-sized frame (a few-KiB analysis report).
/// Bounds what `ctctl --connect` pays over a local run besides the socket.
void BM_WireFrameRoundTrip(benchmark::State& state) {
  service::Request request;
  request.kind = service::RequestKind::kAnalyze;
  request.topology_csv = std::string(static_cast<std::size_t>(state.range(0)),
                                     'x');
  std::uint32_t id = 1;
  for (auto _ : state) {
    const std::string bytes = service::encode_frame(
        service::FrameType::kRequest, id++, service::encode_request(request));
    service::FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    service::Frame frame;
    decoder.next(frame);
    benchmark::DoNotOptimize(service::decode_request(frame.payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_WireFrameRoundTrip)->Arg(0)->Arg(4096)->Arg(65536)
    ->Unit(benchmark::kMicrosecond);

// --- DES engine -------------------------------------------------------------

/// The busiest protocol configuration (three interleaved BFT sites), so
/// the event loop and message pool dominate the measurement.
const scada::Configuration& des_config() {
  static const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  for (const auto& config : configs) {
    if (config.name == "6+6+6") return config;
  }
  return configs.back();
}

/// Worst-case compound threat (one intrusion + one isolation, no flood):
/// exercises compromise, site isolation, view changes, and recovery.
threat::SystemState des_attacked_state(const scada::Configuration& config) {
  threat::SystemState base;
  base.site_status.assign(config.sites.size(), threat::SiteStatus::kUp);
  base.intrusions.assign(config.sites.size(), 0);
  return threat::GreedyWorstCaseAttacker{}.attack(config, base, {1, 1});
}

/// Full ScadaDes runs on the pooled engine, one arena across iterations —
/// the steady-state (allocation-free) event loop. items/s == events/s.
void BM_DesEventLoop(benchmark::State& state) {
  const sim::ScadaDes des(des_config(), core::chaos_des_options());
  const threat::SystemState attacked = des_attacked_state(des.config());
  sim::DesArena arena;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const sim::DesOutcome outcome = des.run(attacked, arena);
    events += outcome.events;
    benchmark::DoNotOptimize(outcome.observed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_DesEventLoop)->Unit(benchmark::kMillisecond);

/// One f=1 BFT group driven request -> proposal -> quorum -> execute, a
/// round per iteration: isolates the indexed vote/checkpoint bookkeeping
/// from the rest of the simulation.
void BM_BftQuorumRound(benchmark::State& state) {
  sim::Simulator sim;
  sim::Network net(sim, {4, 1});
  sim::BftOptions options;
  options.f = 1;
  options.k = 0;
  const std::vector<sim::NodeAddr> group = sim::interleaved_group({0}, {4});
  std::vector<std::unique_ptr<sim::BftReplica>> replicas;
  for (std::size_t i = 0; i < group.size(); ++i) {
    replicas.push_back(std::make_unique<sim::BftReplica>(
        sim, net, group[i], group, static_cast<int>(i), options, true));
  }
  for (auto& replica : replicas) replica->start();
  const sim::NodeAddr client{1, 0};
  net.register_handler(client, [](const sim::Message&) {});
  sim::Message request;
  request.type = sim::Message::Type::kRequest;
  request.sender = client;
  for (auto _ : state) {
    ++request.request_id;
    for (const sim::NodeAddr member : group) net.send(client, member, request);
    sim.run_until(sim.now() + 1.0);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BftQuorumRound)->Unit(benchmark::kMicrosecond);

/// A small but real chaos sweep (seeded benign plans, shrink machinery
/// armed) through the thread-local arena path in core/chaos.cpp.
void BM_ChaosSweep(benchmark::State& state) {
  core::ChaosOptions options;
  options.plans = 2;
  options.scenarios = {threat::ThreatScenario::kHurricaneIntrusion};
  const core::ChaosRunner runner(options);
  runtime::EnsembleRunner inline_runtime(runner_options(1, false));
  const scada::Configuration& config = des_config();
  for (auto _ : state) {
    const core::ChaosReport report = runner.sweep(config, inline_runtime);
    benchmark::DoNotOptimize(report.runs);
  }
}
BENCHMARK(BM_ChaosSweep)->Unit(benchmark::kMillisecond);

/// The metrics hot path: one counter increment plus one histogram observe
/// per iteration — two relaxed shard adds when the registry is enabled.
/// Arg(0) runs with the registry disabled (the one-branch early-out).
void BM_MetricsHotPath(benchmark::State& state) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(state.range(0) != 0);
  obs::Counter counter("bench.metrics_hot_path");
  obs::Histogram hist("bench.metrics_hot_path_us");
  std::uint64_t i = 0;
  for (auto _ : state) {
    counter.inc();
    hist.observe(i++ & 0xfff);
  }
  obs::set_enabled(was_enabled);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsHotPath)->Arg(0)->Arg(1);

/// Span construct/destroy around a trivial region. Arg(0) is the
/// tracing-off cost every instrumented callsite pays when spans are idle;
/// Arg(1) records into the per-thread ring.
void BM_SpanOverhead(benchmark::State& state) {
  obs::set_trace_enabled(state.range(0) != 0);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    obs::Span span("bench.span_overhead");
    benchmark::DoNotOptimize(sink++);
  }
  obs::set_trace_enabled(false);
  obs::reset_trace_for_test();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SpanOverhead)->Arg(0)->Arg(1);

/// Times the pooled DES engine over plain runs, a BFT quorum round, and a
/// chaos-style fault-plan sweep. Merged into BENCH_des.json.
bench::DesBenchRecord micro_des_record() {
  const scada::Configuration& config = des_config();
  const sim::DesOptions options = core::chaos_des_options();
  const sim::ScadaDes des(config, options);
  const threat::SystemState attacked = des_attacked_state(config);

  const auto now = [] { return std::chrono::steady_clock::now(); };
  const auto seconds = [](auto start, auto end) {
    return std::chrono::duration<double>(end - start).count();
  };

  constexpr std::size_t kRuns = 10;
  sim::DesArena arena;
  std::uint64_t events = 0;
  const auto fast_start = now();
  for (std::size_t i = 0; i < kRuns; ++i) {
    events += des.run(attacked, arena).events;
  }
  const auto fast_end = now();

  // Quorum round: same microcosm as BM_BftQuorumRound, timed directly.
  double quorum_round_ms = 0.0;
  {
    sim::Simulator qsim;
    sim::Network qnet(qsim, {4, 1});
    sim::BftOptions bft;
    bft.f = 1;
    bft.k = 0;
    const std::vector<sim::NodeAddr> group = sim::interleaved_group({0}, {4});
    std::vector<std::unique_ptr<sim::BftReplica>> replicas;
    for (std::size_t i = 0; i < group.size(); ++i) {
      replicas.push_back(std::make_unique<sim::BftReplica>(
          qsim, qnet, group[i], group, static_cast<int>(i), bft, true));
    }
    for (auto& replica : replicas) replica->start();
    const sim::NodeAddr client{1, 0};
    qnet.register_handler(client, [](const sim::Message&) {});
    sim::Message request;
    request.type = sim::Message::Type::kRequest;
    request.sender = client;
    constexpr std::size_t kRounds = 2000;
    const auto q_start = now();
    for (std::size_t round = 0; round < kRounds; ++round) {
      ++request.request_id;
      for (const sim::NodeAddr member : group) {
        qnet.send(client, member, request);
      }
      qsim.run_until(qsim.now() + 1.0);
    }
    quorum_round_ms = seconds(q_start, now()) * 1000.0 /
                      static_cast<double>(kRounds);
  }

  // Chaos-corpus sweep: the exact plans ChaosRunner would generate
  // (child RNG per plan index), one arena across the sweep.
  std::vector<int> nodes_per_site;
  for (const auto& site : config.sites) nodes_per_site.push_back(site.replicas);
  sim::BenignPlanShape shape;
  shape.window_to_s = std::max(shape.window_from_s + 1.0,
                               options.horizon_s - options.settle_window_s -
                                   60.0);
  constexpr std::size_t kPlans = 6;
  const util::Rng base_rng(1, "chaos");
  std::vector<sim::FaultPlan> plans;
  plans.reserve(kPlans);
  for (std::size_t p = 0; p < kPlans; ++p) {
    util::Rng plan_rng = base_rng.child("plan", p);
    plans.push_back(sim::random_benign_plan(shape, nodes_per_site, plan_rng));
  }
  const auto sweep_fast_start = now();
  for (const sim::FaultPlan& plan : plans) {
    benchmark::DoNotOptimize(des.run(attacked, plan, arena).observed);
  }
  const auto sweep_fast_end = now();

  bench::DesBenchRecord record;
  record.name = "bench_micro";
  record.runs = kRuns;
  record.events = events;
  record.fast_s = seconds(fast_start, fast_end);
  record.quorum_round_ms = quorum_round_ms;
  record.sweep_fast_s = seconds(sweep_fast_start, sweep_fast_end);
  record.sweep_runs = kPlans;
  return record;
}

/// Distribution-free interval on the median of `values` (the sign-test
/// interval): the order statistics x_(k) and x_(n+1-k), with k the largest
/// rank such that P(Binomial(n, 1/2) < k) <= (1 - confidence) / 2. Heavy
/// tails, such as a pass a scheduler hiccup slowed, cannot widen it.
util::Interval median_interval(std::vector<double> values, double confidence) {
  const std::size_t n = values.size();
  const double tail = (1.0 - confidence) / 2.0;
  std::size_t k = 0;  // P(X < k) <= tail holds for every rank up to k
  double term = std::pow(0.5, static_cast<double>(n));  // P(X = 0)
  double below = 0.0;                                   // P(X < k)
  while (k < n / 2 && below + term <= tail) {
    below += term;
    term *= static_cast<double>(n - k) / static_cast<double>(k + 1);
    ++k;
  }
  if (k == 0) {  // too few values to bound the median at all
    return {-std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::infinity()};
  }
  std::sort(values.begin(), values.end());
  return {values[k - 1], values[n - k]};
}

/// Times the ct_obs primitives per-op and the instrumented DES loop with
/// the registry enabled vs disabled — paired, interleaved runs, so
/// scheduler drift hits both variants equally. The enabled-but-idle
/// overhead bound (<2%) is decided on the confidence interval of the
/// median pair via the exit code in main(). Merged into BENCH_obs.json.
bench::ObsBenchRecord micro_obs_record() {
  const auto now = [] { return std::chrono::steady_clock::now(); };
  const auto seconds = [](auto start, auto end) {
    return std::chrono::duration<double>(end - start).count();
  };

  bench::ObsBenchRecord record;
  record.name = "bench_micro";

  // Per-op costs of the primitives (single thread, hot shard).
  constexpr std::uint64_t kOps = 2'000'000;
  obs::Counter counter("bench.obs_record_counter");
  obs::Histogram hist("bench.obs_record_hist");
  const auto per_op_ns = [&](auto&& op) {
    const auto start = now();
    for (std::uint64_t i = 0; i < kOps; ++i) op(i);
    return seconds(start, now()) * 1e9 / static_cast<double>(kOps);
  };
  obs::set_enabled(true);
  record.counter_inc_ns = per_op_ns([&](std::uint64_t) { counter.inc(); });
  record.histogram_observe_ns =
      per_op_ns([&](std::uint64_t i) { hist.observe(i & 0xfff); });
  obs::set_enabled(false);
  record.counter_disabled_ns =
      per_op_ns([&](std::uint64_t) { counter.inc(); });
  obs::set_enabled(true);
  obs::set_trace_enabled(true);
  record.span_ns = per_op_ns([&](std::uint64_t) {
    obs::Span span("bench.obs_record_span");
  });
  obs::set_trace_enabled(false);
  obs::reset_trace_for_test();
  record.span_idle_ns = per_op_ns([&](std::uint64_t) {
    obs::Span span("bench.obs_record_span");
  });

  // Enabled-but-idle cost on the DES hot loop: same corpus as
  // BM_DesEventLoop. Each pair times one run with obs off and one with it
  // on, back to back, the order alternating between pairs, so drift hits
  // both sides of a pair alike. Short passes and many pairs leave most
  // pairs clear of scheduler interference, and the median's interval
  // ignores the pairs it hit.
  const sim::ScadaDes des(des_config(), core::chaos_des_options());
  const threat::SystemState attacked = des_attacked_state(des.config());
  sim::DesArena arena;
  constexpr std::size_t kPairs = 301;
  const auto timed_run = [&](bool obs_on) {
    obs::set_enabled(obs_on);
    const auto start = now();
    const sim::DesOutcome outcome = des.run(attacked, arena);
    benchmark::DoNotOptimize(outcome.observed);
    return seconds(start, now());
  };
  des.run(attacked, arena);  // warm the arena before timing anything
  std::vector<double> off_s;
  std::vector<double> on_s;
  std::vector<double> overhead;
  for (std::size_t pair = 0; pair < kPairs; ++pair) {
    const bool on_first = pair % 2 == 1;
    const double first = timed_run(on_first);
    const double second = timed_run(!on_first);
    const double on = on_first ? first : second;
    const double off = on_first ? second : first;
    off_s.push_back(off);
    on_s.push_back(on);
    overhead.push_back(on / off - 1.0);
  }
  const util::Interval interval = median_interval(overhead, 0.95);
  record.des_pairs = kPairs;
  record.des_obs_off_s = util::exact_quantile(off_s, 0.5);
  record.des_obs_on_s = util::exact_quantile(on_s, 0.5);
  record.des_overhead = util::exact_quantile(overhead, 0.5);
  record.des_overhead_lo = interval.lo;
  record.des_overhead_hi = interval.hi;

  // Determinism: the instrumentation must not perturb outcomes.
  obs::set_enabled(true);
  obs::set_trace_enabled(true);
  const sim::DesOutcome on_outcome = des.run(attacked, arena);
  obs::set_enabled(false);
  obs::set_trace_enabled(false);
  const sim::DesOutcome off_outcome = des.run(attacked, arena);
  record.identical = sim::des_outcomes_identical(on_outcome, off_outcome);
  obs::set_enabled(true);
  obs::reset_trace_for_test();
  return record;
}

/// Times the production sweep path — analyze_resumable over all five paper
/// configurations x one compound scenario, generation included, exactly
/// what `ctctl analyze` runs — at jobs 1, on the pool, and cache-warm, and
/// merges the record into BENCH_runtime.json.
bench::RuntimeBenchRecord micro_runtime_record() {
  const std::size_t n = std::min<std::size_t>(bench::bench_realizations(), 200);
  const unsigned jobs = bench::bench_jobs();
  const auto scenario = threat::ThreatScenario::kHurricaneIntrusionIsolation;
  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  const core::AnalysisPipeline pipeline;
  std::vector<core::SweepCell> cells;
  for (const auto& config : configs) {
    cells.push_back(core::SweepCell{&config, scenario});
  }
  const std::string digest =
      runtime::EnsembleRunner::digest_engine_batch(engine(), n);
  // `ctctl analyze` generates from the engine scoped to the sites.
  const surge::RealizationEngine scoped =
      engine().scoped({scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
                       scada::oahu_ids::kDrFortress});
  const auto clean_options = [](unsigned j, bool cache) {
    runtime::EnsembleOptions options = runner_options(j, cache);
    options.fault_spec = "none";
    return options;
  };

  const auto timed = [&](runtime::EnsembleRunner& runner) {
    const auto start = std::chrono::steady_clock::now();
    core::ResumableAnalysis analysis = pipeline.analyze_resumable(
        cells, runtime::fixed_engine(scoped), n, runner, digest,
        runtime::CheckpointOptions{});
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    return std::pair(std::move(analysis.results), seconds);
  };

  // Cold sweeps: best of 3 on fresh runners — a sub-second sweep's single
  // sample is host noise of the same order as the speedup being measured.
  const auto best_cold = [&](unsigned j) {
    std::vector<core::ScenarioResult> results;
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      runtime::EnsembleRunner runner(clean_options(j, false));
      auto [rep_results, seconds] = timed(runner);
      best = rep == 0 ? seconds : std::min(best, seconds);
      results = std::move(rep_results);
    }
    return std::pair(std::move(results), best);
  };
  const auto [serial_results, serial_s] = best_cold(1);
  const auto [parallel_results, parallel_s] = best_cold(jobs);

  // Cache-warm: one untimed cold pass fills the store, the timed pass hits.
  runtime::EnsembleRunner pooled(clean_options(jobs, true));
  timed(pooled);
  const auto cold_stats = pooled.cache_stats();
  const auto [warm_results, warm_s] = timed(pooled);
  const auto stats = pooled.cache_stats();

  const auto identical = [&](const std::vector<core::ScenarioResult>& other) {
    for (std::size_t i = 0; i < serial_results.size(); ++i) {
      for (const auto s :
           {threat::OperationalState::kGreen, threat::OperationalState::kOrange,
            threat::OperationalState::kRed, threat::OperationalState::kGray}) {
        if (serial_results[i].outcomes.count(s) != other[i].outcomes.count(s)) {
          return false;
        }
      }
    }
    return true;
  };

  // Degraded path: quarantine-and-retry under an injected fault profile,
  // through the same sweep (generation is where the faults fire).
  runtime::EnsembleOptions fault_options = runner_options(jobs, false);
  fault_options.fault_spec = "throw:every=17";
  fault_options.max_retries = 1;
  runtime::EnsembleRunner faulty(fault_options);
  const auto fault_start = std::chrono::steady_clock::now();
  const core::ResumableAnalysis degraded = pipeline.analyze_resumable(
      cells, runtime::fixed_engine(scoped), n, faulty, digest,
      runtime::CheckpointOptions{});
  const double fault_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - fault_start)
                             .count();

  bench::RuntimeBenchRecord record;
  record.name = "bench_micro";
  record.realizations = n;
  record.jobs = jobs;
  record.serial_s = serial_s;
  record.parallel_s = parallel_s;
  record.warm_s = warm_s;
  record.identical = identical(parallel_results) && identical(warm_results);
  record.cache_lookups = stats.lookups - cold_stats.lookups;
  record.cache_hits = stats.hits - cold_stats.hits;
  record.fault_s = fault_s;
  // One ledger covers the sweep: every cell carries the same one.
  record.fault_quarantined = degraded.results.front().failures.size();
  record.fault_retries = degraded.results.front().retries;

  // Checkpointed runtime (PR 7): the fused run_resumable sweep — the whole
  // (5 configs x 1 scenario) matrix as one multi-series pass, generation
  // included, exactly what `ctctl analyze --checkpoint-dir` runs — with
  // checkpointing off (baseline) and journal-on at three intervals.
  runtime::SweepSpec sweep;
  sweep.digest = "bench-micro-checkpoint";
  sweep.count = n;
  for (const auto& config : configs) sweep.series.push_back(config.name);
  const auto sweep_outcome = [&](std::size_t series,
                                 const surge::HurricaneRealization& r) {
    return static_cast<int>(
        pipeline.outcome_for(configs[series], scenario, r));
  };
  namespace fs = std::filesystem;
  const std::string ckpt_dir =
      (fs::temp_directory_path() / "ct-bench-micro-ckpt").string();
  // Best-of-3 per variant: the sweeps are sub-second, so a single sample
  // is scheduler noise of the same order as the fsync cost being measured.
  const auto timed_sweep = [&](const runtime::CheckpointOptions& ckpt) {
    std::uint64_t writes = 0;
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      if (!ckpt.dir.empty()) fs::remove_all(ckpt.dir);
      runtime::EnsembleRunner sweeper(clean_options(jobs, false));
      const auto start = std::chrono::steady_clock::now();
      const runtime::ResumableReport report =
          sweeper.run_resumable(runtime::fixed_engine(engine()), sweep,
                                sweep_outcome, ckpt);
      const double seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
      writes = report.checkpoints;
      best = rep == 0 ? seconds : std::min(best, seconds);
    }
    return std::pair(writes, best);
  };
  record.resumable_s = timed_sweep(runtime::CheckpointOptions{}).second;
  const auto at_interval = [&](std::size_t interval) {
    runtime::CheckpointOptions ckpt;
    ckpt.dir = ckpt_dir;
    ckpt.interval = interval;
    ckpt.crash_spec = "none";
    return timed_sweep(ckpt);
  };
  record.checkpoint32_s = at_interval(32).second;
  const auto [default_writes, default_s] = at_interval(128);
  record.checkpoint_s = default_s;
  record.checkpoint_writes = default_writes;
  record.checkpoint512_s = at_interval(512).second;
  fs::remove_all(ckpt_dir);
  return record;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::DesBenchRecord des_record = micro_des_record();
  bench::write_des_bench_record(des_record);
  std::cout << "DES engine (" << des_record.runs << " runs, "
            << des_record.events << " events): pooled "
            << util::format_fixed(des_record.fast_s, 2) << " s ("
            << util::format_fixed(des_record.fast_events_per_s() / 1e6, 2)
            << " M ev/s), quorum round "
            << util::format_fixed(des_record.quorum_round_ms * 1000.0, 1)
            << " us, plan sweep " << des_record.sweep_runs << " plans "
            << util::format_fixed(des_record.sweep_fast_s, 2)
            << " s; recorded in BENCH_des.json\n";

  const bench::ObsBenchRecord obs_record = micro_obs_record();
  bench::write_obs_bench_record(obs_record);
  // The acceptance bound: enabled-but-idle observability must cost the
  // DES hot loop <2% (median pair). It passes only when the whole 95%
  // interval lies below the bound and fails when the interval lies above
  // it; an interval that straddles the bound fails too, as too noisy to
  // decide, rather than passing on a lucky sample.
  const bool obs_cheap = obs_record.des_overhead_hi < 0.02;
  const char* obs_verdict = obs_cheap ? "within bound"
                            : obs_record.des_overhead_lo > 0.02
                                ? "EXCEEDED"
                                : "TOO NOISY TO DECIDE";
  std::cout << "observability: counter inc "
            << util::format_fixed(obs_record.counter_inc_ns, 1) << " ns ("
            << util::format_fixed(obs_record.counter_disabled_ns, 1)
            << " ns disabled), histogram observe "
            << util::format_fixed(obs_record.histogram_observe_ns, 1)
            << " ns, span " << util::format_fixed(obs_record.span_ns, 1)
            << " ns (" << util::format_fixed(obs_record.span_idle_ns, 1)
            << " ns idle), DES loop " << obs_record.des_pairs
            << " off/on run pairs, median "
            << util::format_fixed(obs_record.des_obs_off_s, 4) << " -> "
            << util::format_fixed(obs_record.des_obs_on_s, 4) << " s ("
            << util::format_fixed(obs_record.des_overhead * 100.0, 2)
            << "% with obs on, 95% CI ["
            << util::format_fixed(obs_record.des_overhead_lo * 100.0, 2)
            << ", "
            << util::format_fixed(obs_record.des_overhead_hi * 100.0, 2)
            << "]%, bound 2%: " << obs_verdict << "), "
            << (obs_record.identical ? "bit-identical" : "NOT IDENTICAL")
            << "; recorded in BENCH_obs.json\n";

  const bench::RuntimeBenchRecord record = micro_runtime_record();
  bench::write_runtime_bench_record(record);
  std::cout << "analyze_resumable sweep (" << record.realizations
            << " realizations, generation included): serial " << util::format_fixed(record.serial_s, 2)
            << " s, parallel(" << record.jobs << ") "
            << util::format_fixed(record.parallel_s, 2) << " s ("
            << util::format_fixed(record.speedup(), 2) << "x), warm "
            << util::format_fixed(record.warm_s, 3) << " s, "
            << (record.identical ? "bit-identical" : "NOT IDENTICAL")
            << "; recorded in BENCH_runtime.json\n";
  std::cout << "fault isolation: fault path "
            << util::format_fixed(record.fault_s, 2) << " s with "
            << record.fault_quarantined << " quarantined / "
            << record.fault_retries << " retries\n";
  std::cout << "checkpointing: off "
            << util::format_fixed(record.resumable_s, 2) << " s, interval 32 "
            << util::format_fixed(record.checkpoint32_s, 2)
            << " s, interval 128 " << util::format_fixed(record.checkpoint_s, 2)
            << " s (" << util::format_fixed(record.checkpoint_overhead() * 100.0, 1)
            << "%, " << record.checkpoint_writes
            << " durable writes), interval 512 "
            << util::format_fixed(record.checkpoint512_s, 2) << " s\n";

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return record.identical && obs_record.identical && obs_cheap ? 0 : 1;
}
