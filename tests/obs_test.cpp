// ct_obs acceptance tests: registry shard-fold correctness under TaskPool
// concurrency (the TSan job runs this suite), log2 histogram bucket
// boundaries, span ring-buffer overflow accounting, Chrome-trace JSON
// well-formedness — and the determinism gate: analyze_resumable() and
// ScadaDes::run() must be bit-identical with observability (metrics + tracing) on and
// off, at every jobs value the CI matrix exercises.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/ensemble_runner.h"
#include "runtime/task_pool.h"
#include "scada/oahu.h"
#include "sim/scada_des.h"
#include "surge/realization.h"
#include "terrain/oahu.h"
#include "threat/scenario.h"

namespace ct {
namespace {

/// Restores the metrics/tracing gates on scope exit so a test can never
/// leak a disabled registry into the rest of the suite.
struct ObsGateGuard {
  ~ObsGateGuard() {
    obs::set_enabled(true);
    obs::set_trace_enabled(false);
    obs::set_ring_capacity(4096);
  }
};

// --- histogram bucket boundaries -------------------------------------------

TEST(ObsMetricsTest, HistogramBucketBoundaries) {
  // Bucket 0 holds value 0; bucket b >= 1 holds [2^(b-1), 2^b - 1].
  EXPECT_EQ(obs::histogram_bucket_of(0), 0u);
  EXPECT_EQ(obs::histogram_bucket_of(1), 1u);
  EXPECT_EQ(obs::histogram_bucket_of(2), 2u);
  EXPECT_EQ(obs::histogram_bucket_of(3), 2u);
  EXPECT_EQ(obs::histogram_bucket_of(4), 3u);
  EXPECT_EQ(obs::histogram_bucket_of(7), 3u);
  EXPECT_EQ(obs::histogram_bucket_of(8), 4u);
  for (unsigned b = 1; b + 1 < obs::kHistogramBuckets; ++b) {
    const std::uint64_t lo = obs::histogram_bucket_floor(b);
    const std::uint64_t hi = (std::uint64_t{1} << b) - 1;
    EXPECT_EQ(obs::histogram_bucket_of(lo), b) << "floor of bucket " << b;
    EXPECT_EQ(obs::histogram_bucket_of(hi), b) << "ceiling of bucket " << b;
  }
  // The last bucket absorbs everything too large for the layout.
  EXPECT_EQ(obs::histogram_bucket_of(~std::uint64_t{0}),
            obs::kHistogramBuckets - 1);
  EXPECT_EQ(obs::histogram_bucket_floor(0), 0u);
  EXPECT_EQ(obs::histogram_bucket_floor(5), 16u);
}

TEST(ObsMetricsTest, HistogramObserveCountsAndSums) {
  ObsGateGuard guard;
  obs::set_enabled(true);
  obs::Histogram h("obs_test.hist_basic");
  h.observe(0);
  h.observe(1);
  h.observe(5);   // bucket 3
  h.observe(5);
  h.observe(100);  // bucket 7
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(3), 2u);
  EXPECT_EQ(h.bucket(7), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 111u);
}

// --- registry semantics ----------------------------------------------------

TEST(ObsMetricsTest, CounterGaugeAndSnapshot) {
  ObsGateGuard guard;
  obs::set_enabled(true);
  obs::Counter counter("obs_test.counter");
  obs::Gauge gauge("obs_test.gauge");
  counter.inc();
  counter.inc(9);
  gauge.set(17);
  gauge.max(5);    // below current: no-op
  gauge.max(99);   // above: wins
  EXPECT_EQ(counter.value(), 10u);
  EXPECT_EQ(gauge.value(), 99u);

  const obs::MetricsSnapshot snapshot = obs::capture_metrics();
  const obs::MetricValue* c = snapshot.find("obs_test.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->kind, obs::MetricKind::kCounter);
  EXPECT_EQ(c->value, 10u);
  const obs::MetricValue* g = snapshot.find("obs_test.gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->value, 99u);
  EXPECT_EQ(snapshot.find("obs_test.no_such_metric"), nullptr);

  // Snapshot order is sorted by name — the byte-stability contract the
  // shared formatter relies on.
  for (std::size_t i = 1; i < snapshot.metrics.size(); ++i) {
    EXPECT_LT(snapshot.metrics[i - 1].name, snapshot.metrics[i].name);
  }
}

TEST(ObsMetricsTest, SameNameReturnsSameMetric) {
  ObsGateGuard guard;
  obs::set_enabled(true);
  obs::Counter a("obs_test.shared_name");
  obs::Counter b("obs_test.shared_name");
  a.inc(3);
  b.inc(4);
  EXPECT_EQ(a.value(), 7u);
  EXPECT_EQ(b.value(), 7u);
}

TEST(ObsMetricsTest, DisabledRegistryDropsWrites) {
  ObsGateGuard guard;
  obs::Counter counter("obs_test.gated_counter");
  const std::uint64_t before = counter.value();
  obs::set_enabled(false);
  counter.inc(100);
  EXPECT_EQ(counter.value(), before);
  obs::set_enabled(true);
  counter.inc(1);
  EXPECT_EQ(counter.value(), before + 1);
}

TEST(ObsMetricsTest, FormatMetricsRendersTextAndJson) {
  ObsGateGuard guard;
  obs::set_enabled(true);
  obs::Counter counter("obs_test.fmt_counter");
  obs::Histogram hist("obs_test.fmt_hist");
  counter.inc(2);
  hist.observe(10);
  const obs::MetricsSnapshot snapshot = obs::capture_metrics();

  const std::string text = obs::format_metrics(snapshot, /*json=*/false);
  EXPECT_NE(text.find("obs_test.fmt_counter"), std::string::npos);
  EXPECT_NE(text.find("obs_test.fmt_hist.count"), std::string::npos);

  const std::string json = obs::format_metrics(snapshot, /*json=*/true);
  EXPECT_NE(json.find("\"obs_test.fmt_counter\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);

  // Deterministic rendering: the same snapshot formats to the same bytes
  // (this is what makes local and remote `--metrics` byte-identical).
  EXPECT_EQ(json, obs::format_metrics(snapshot, /*json=*/true));
  EXPECT_EQ(text, obs::format_metrics(snapshot, /*json=*/false));
}

// --- shard-fold under TaskPool concurrency (TSan gate) ---------------------

TEST(ObsMetricsTest, ShardFoldUnderTaskPoolConcurrency) {
  ObsGateGuard guard;
  obs::set_enabled(true);
  obs::Counter counter("obs_test.mt_counter");
  obs::Histogram hist("obs_test.mt_hist");
  const std::uint64_t counter_before = counter.value();
  const std::uint64_t hist_count_before = hist.count();
  const std::uint64_t hist_sum_before = hist.sum();

  constexpr std::size_t kN = 20000;
  runtime::TaskPool pool(8);
  pool.parallel_for_each(kN, 64, [&](std::size_t i) {
    counter.inc();
    hist.observe(i % 17);
  });

  std::uint64_t expected_sum = 0;
  for (std::size_t i = 0; i < kN; ++i) expected_sum += i % 17;
  EXPECT_EQ(counter.value() - counter_before, kN);
  EXPECT_EQ(hist.count() - hist_count_before, kN);
  EXPECT_EQ(hist.sum() - hist_sum_before, expected_sum);

  // Worker threads died with the pool; their shards must have folded into
  // the retired accumulator without losing a single increment.
  const obs::MetricsSnapshot snapshot = obs::capture_metrics();
  const obs::MetricValue* c = snapshot.find("obs_test.mt_counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value - counter_before, kN);
}

// --- span tracer -----------------------------------------------------------

TEST(ObsTraceTest, SpansRecordNestingAndParentLinkage) {
  ObsGateGuard guard;
  obs::set_trace_enabled(true);
  obs::reset_trace_for_test();
  {
    obs::Span outer("obs_test.outer");
    {
      obs::Span inner("obs_test.inner");
    }
  }
  const obs::TraceDump dump = obs::collect_trace();
  const obs::SpanRecord* outer = nullptr;
  const obs::SpanRecord* inner = nullptr;
  for (const obs::SpanRecord& s : dump.spans) {
    if (s.name == "obs_test.outer") outer = &s;
    if (s.name == "obs_test.inner") inner = &s;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->parent, outer->id);
  EXPECT_EQ(outer->parent, 0u);
  EXPECT_GE(inner->start_ns, outer->start_ns);
  EXPECT_EQ(inner->tid, outer->tid);
}

TEST(ObsTraceTest, DisabledTracerRecordsNothing) {
  ObsGateGuard guard;
  obs::set_trace_enabled(false);
  obs::reset_trace_for_test();
  {
    obs::Span span("obs_test.should_not_appear");
    obs::trace_instant("obs_test.nor_this");
  }
  const obs::TraceDump dump = obs::collect_trace();
  for (const obs::SpanRecord& s : dump.spans) {
    EXPECT_NE(s.name, "obs_test.should_not_appear");
    EXPECT_NE(s.name, "obs_test.nor_this");
  }
}

TEST(ObsTraceTest, RingOverflowKeepsNewestAndCountsDropped) {
  ObsGateGuard guard;
  obs::set_trace_enabled(true);
  obs::reset_trace_for_test();
  obs::set_ring_capacity(8);
  // A fresh thread gets a fresh ring at the tiny capacity; 20 spans must
  // leave the 8 newest in the ring and count 12 as dropped.
  std::thread emitter([] {
    for (int i = 0; i < 20; ++i) obs::trace_instant("obs_test.overflow");
  });
  emitter.join();
  const obs::TraceDump dump = obs::collect_trace();
  std::size_t kept = 0;
  std::uint64_t max_id = 0;
  for (const obs::SpanRecord& s : dump.spans) {
    if (s.name != "obs_test.overflow") continue;
    ++kept;
    if (s.id > max_id) max_id = s.id;
  }
  EXPECT_EQ(kept, 8u);
  EXPECT_EQ(dump.dropped, 12u);
  // Overwrite-oldest: the survivors are the LAST 8 emitted (ids are
  // monotone, so the max kept id minus 7 is the smallest survivor).
  for (const obs::SpanRecord& s : dump.spans) {
    if (s.name == "obs_test.overflow") {
      EXPECT_GT(s.id + 8, max_id);
    }
  }
}

/// Minimal string-aware JSON structural checker: balanced containers,
/// terminated strings, no trailing garbage. Enough to catch a malformed
/// exporter without dragging a JSON parser into the test.
bool json_well_formed(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (const char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': stack.push_back(c); break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

TEST(ObsTraceTest, ChromeTraceJsonWellFormed) {
  ObsGateGuard guard;
  obs::set_trace_enabled(true);
  obs::reset_trace_for_test();
  {
    obs::Span a("obs_test.chrome \"quoted\\name\"");  // hostile span name
    obs::Span b("obs_test.chrome_child");
    obs::trace_instant("obs_test.chrome_instant");
  }
  std::ostringstream os;
  obs::write_chrome_trace(os, obs::collect_trace());
  const std::string json = os.str();
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\""), std::string::npos);
  EXPECT_NE(json.find("droppedSpans"), std::string::npos);
}

// --- determinism gate: obs on/off must be invisible to results -------------

std::vector<unsigned> job_counts() {
  std::vector<unsigned> jobs = {1, 8};
  if (const char* env = std::getenv("CT_TEST_JOBS")) {
    const unsigned long n = std::strtoul(env, nullptr, 10);
    if (n > 0) jobs.push_back(static_cast<unsigned>(n));
  }
  return jobs;
}

scada::Configuration paper_config(std::size_t index) {
  return scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress)[index];
}

core::ScenarioResult analyze_once(unsigned jobs) {
  surge::RealizationConfig config;
  config.base_seed = 20220627;
  const surge::RealizationEngine engine(
      terrain::make_oahu_terrain(), scada::oahu_topology().exposed_assets(),
      config);
  runtime::EnsembleOptions options;
  options.jobs = jobs;
  options.chunk = 7;
  options.cache = false;  // no cache: both runs must actually compute
  runtime::EnsembleRunner runtime(options);
  const scada::Configuration scada_config = paper_config(2);
  const core::AnalysisPipeline pipeline;
  // The fused stream `ctctl analyze` runs, checkpointing off.
  core::ResumableAnalysis analysis = pipeline.analyze_resumable(
      {core::SweepCell{&scada_config,
                       threat::ThreatScenario::kHurricaneIntrusionIsolation}},
      engine, 32, runtime, "obs-determinism-gate",
      runtime::CheckpointOptions{});
  return std::move(analysis.results.at(0));
}

TEST(ObsDeterminismTest, AnalyzeBitIdenticalWithObsOnAndOff) {
  ObsGateGuard guard;
  for (const unsigned jobs : job_counts()) {
    obs::set_enabled(true);
    obs::set_trace_enabled(true);
    const core::ScenarioResult on = analyze_once(jobs);
    obs::set_enabled(false);
    obs::set_trace_enabled(false);
    const core::ScenarioResult off = analyze_once(jobs);
    for (const auto state :
         {threat::OperationalState::kGreen, threat::OperationalState::kOrange,
          threat::OperationalState::kRed, threat::OperationalState::kGray}) {
      EXPECT_EQ(on.outcomes.count(state), off.outcomes.count(state))
          << "jobs=" << jobs
          << " state=" << static_cast<int>(state);
    }
    EXPECT_EQ(on.outcomes.total(), off.outcomes.total()) << "jobs=" << jobs;
  }
}

TEST(ObsDeterminismTest, ScadaDesRunBitIdenticalWithObsOnAndOff) {
  ObsGateGuard guard;
  const scada::Configuration config = paper_config(3);
  const sim::ScadaDes des(config, sim::DesOptions{});
  std::vector<bool> flooded(config.sites.size(), false);
  flooded[0] = true;

  const threat::AttackerCapability capability = threat::capability_for(
      threat::ThreatScenario::kHurricaneIntrusionIsolation);
  obs::set_enabled(true);
  obs::set_trace_enabled(true);
  const sim::DesOutcome on = des.run(flooded, capability);
  obs::set_enabled(false);
  obs::set_trace_enabled(false);
  const sim::DesOutcome off = des.run(flooded, capability);
  EXPECT_TRUE(sim::des_outcomes_identical(on, off));
}

}  // namespace
}  // namespace ct
