// paper-cold and paper-resume: the paper sweep (1000 realizations x 5
// configurations x 4 scenarios) through service::make_case_study +
// service::execute_request, the entry points ctctl and the server use.
#include <chrono>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "mesh/field.h"
#include "obs/trace.h"
#include "runtime/checkpoint.h"
#include "scada/oahu.h"
#include "service/exec.h"
#include "storm/generator.h"
#include "surge/harbor.h"
#include "surge/realization.h"
#include "threat/scenario.h"
#include "workloads.h"

namespace ctbench {

namespace runtime = ct::runtime;
namespace surge = ct::surge;

core::CaseStudyOptions case_options(const Context& ctx, unsigned jobs,
                                    const std::string& disk_dir) {
  core::CaseStudyOptions options;
  options.realization.base_seed = ctx.seed;
  options.runtime.jobs = jobs;
  options.runtime.fault_spec = "none";
  options.runtime.disk_cache = !disk_dir.empty();
  options.runtime.cache_dir = disk_dir;
  return options;
}

service::Request analyze_request(bool no_cache) {
  service::Request request;
  request.kind = service::RequestKind::kAnalyze;
  request.realizations = 1000;
  request.no_cache = no_cache;
  return request;
}

void warm_up_surge(const Context& ctx) {
  service::Request request = analyze_request(/*no_cache=*/true);
  request.realizations = 64;
  auto runner =
      service::make_case_study(request, case_options(ctx, ctx.nproc), nullptr);
  service::execute_request(request, *runner);
}

namespace {

using Clock = std::chrono::steady_clock;

/// Serial (jobs=1) repetitions per run; the parallel side repeats more.
constexpr std::size_t kSerialReps = 2;

/// Builds a case study and records the build time as one setup sample.
std::unique_ptr<core::CaseStudyRunner> build_runner(
    const service::Request& request, const core::CaseStudyOptions& options,
    std::vector<double>& setup_samples) {
  const auto start = Clock::now();
  auto runner = service::make_case_study(request, options, nullptr);
  setup_samples.push_back(seconds_since(start));
  return runner;
}

/// Runs one request and times it.
service::ExecOutcome timed_execute(const service::Request& request,
                                   core::CaseStudyRunner& runner,
                                   double& seconds,
                                   const runtime::CheckpointOptions& ckpt = {},
                                   runtime::CancellationToken* token = nullptr) {
  const auto start = Clock::now();
  service::ExecOutcome out =
      service::execute_request(request, runner, ckpt, token);
  seconds = seconds_since(start);
  return out;
}

void tally(Sheet& sheet, const service::ExecOutcome& out) {
  sheet.attempt(out.attempted, out.quarantined);
  sheet.gate(out.exit_code == 0 || out.interrupted,
             "analyze exit code " + std::to_string(out.exit_code));
}

void check_golden(const Context& ctx, Sheet& sheet, const std::string& report,
                  const char* what) {
  const std::string digest = text_digest(report);
  sheet.note(std::string(what) + " report digest " + digest);
  if (ctx.seed == kPaperSeed && !ctx.golden.empty()) {
    sheet.gate(digest == ctx.golden,
               std::string(what) + " report digest differs from the golden "
                                   "digest recorded for the paper seed");
  }
}

bool same_impacts(const surge::HurricaneRealization& a,
                  const surge::HurricaneRealization& b) {
  if (a.index != b.index || a.impacts.size() != b.impacts.size() ||
      a.peak_wind_ms != b.peak_wind_ms ||
      a.max_shoreline_wse_m != b.max_shoreline_wse_m) {
    return false;
  }
  for (std::size_t k = 0; k < a.impacts.size(); ++k) {
    const surge::AssetImpact& x = a.impacts[k];
    const surge::AssetImpact& y = b.impacts[k];
    if (x.asset_id != y.asset_id ||
        x.shoreline_station != y.shoreline_station ||
        x.shoreline_wse_m != y.shoreline_wse_m ||
        x.water_level_m != y.water_level_m ||
        x.inundation_depth_m != y.inundation_depth_m ||
        x.failed != y.failed || x.peak_wind_ms != y.peak_wind_ms ||
        x.wind_failed != y.wind_failed) {
      return false;
    }
  }
  return true;
}

/// Per-layer replay: rebuilds every realization serially as a
/// composition of the layers' public calls, each under its own span, and
/// checks the replica field-for-field against RealizationEngine::run(i).
/// Then classifies the replica into every (configuration, scenario) cell.
void replay(Sheet& sheet, core::CaseStudyRunner& runner,
            double sweep_serial_s) {
  const surge::RealizationEngine& engine = runner.engine();
  const surge::RealizationConfig& cfg = engine.config();
  const surge::MeshBindings& bindings = engine.bindings();
  const ct::mesh::CoastalMesh& cm = engine.coastal_mesh();
  const ct::geo::EnuProjection& proj = engine.terrain().projection();
  const ct::storm::TrackGenerator generator(cfg.ensemble);
  sheet.gate(!cfg.fragility.enabled,
             "wind fragility is on; the replay does not model it");

  std::vector<std::size_t> sources(cm.stations.size());
  if (cfg.harbor.enabled) {
    sources = surge::harbor_source_map(cm, engine.sheltered());
  } else {
    for (std::size_t i = 0; i < sources.size(); ++i) sources[i] = i;
  }

  const auto configs = ct::scada::paper_configurations(
      ct::scada::oahu_ids::kHonoluluCc, ct::scada::oahu_ids::kWaiauCc,
      ct::scada::oahu_ids::kDrFortress);
  const auto scenarios = ct::threat::all_scenarios();
  const core::AnalysisPipeline pipeline;

  ct::mesh::NodeField envelope;
  ct::mesh::NodeField scratch;
  std::vector<double> shore;
  std::vector<double> snapshot;
  std::size_t mismatches = 0;
  std::uint64_t classified = 0;

  obs::set_trace_enabled(true);
  const std::size_t count = 1000;
  for (std::size_t i = 0; i < count; ++i) {
    obs::Span root("bench.realization");
    surge::HurricaneRealization replica;
    {
      ct::storm::StormTrack track;
      {
        obs::Span span("storm.track");
        track = generator.generate(cfg.base_seed, i);
      }
      {
        obs::Span span("surge.envelope");
        bindings.accumulate_envelope(track, proj, envelope);
      }
      {
        obs::Span span("mesh.smoothing");
        ct::mesh::shoreline_average_and_extend(cm, bindings.shoreline_plan(),
                                               envelope, scratch);
        ct::mesh::shoreline_values(cm, envelope, shore);
      }
      {
        obs::Span span("surge.alongshore");
        surge::alongshore_average(shore, engine.sheltered(),
                                  cfg.alongshore_window, snapshot);
        if (cfg.sea_level_offset_m != 0.0) {
          for (double& wse : shore) wse += cfg.sea_level_offset_m;
        }
      }
      {
        obs::Span span("surge.harbor");
        if (cfg.harbor.enabled) {
          surge::apply_harbor_transfer(shore, engine.sheltered(), sources,
                                       cfg.harbor.amplification, snapshot);
        }
      }
      {
        obs::Span span("surge.asset_bind");
        replica.index = i;
        bindings.impacts_into(shore, replica.impacts);
        replica.asset_index = bindings.asset_index();
        replica.peak_wind_ms = track.peak_surface_wind_ms();
        bool first = true;
        for (const double v : shore) {
          if (first || v > replica.max_shoreline_wse_m) {
            replica.max_shoreline_wse_m = v;
            first = false;
          }
        }
        surge::validate_realization(replica, cfg.base_seed);
      }
    }
    surge::HurricaneRealization reference;
    {
      obs::Span span("surge.realization");
      reference = engine.run(i);
    }
    if (!same_impacts(replica, reference)) ++mismatches;
    for (const auto scenario : scenarios) {
      for (const auto& config : configs) {
        obs::Span span("core.classify");
        (void)pipeline.outcome_for(config, scenario, replica);
        ++classified;
      }
    }
  }
  obs::set_trace_enabled(false);
  sheet.gate(mismatches == 0, std::to_string(mismatches) +
                                  " replayed realizations differ from "
                                  "RealizationEngine::run");
  sheet.note("replay: " + std::to_string(count) + " realizations, " +
             std::to_string(mismatches) + " mismatches, " +
             std::to_string(classified) + " cell classifications");

  // Per-layer medians from the span records.
  const obs::TraceDump dump = obs::collect_trace();
  std::map<std::string, std::vector<double>> us;
  std::map<std::uint64_t, std::uint64_t> child_ns;
  for (const obs::SpanRecord& r : dump.spans) {
    us[r.name].push_back(static_cast<double>(r.dur_ns) / 1e3);
    if (r.parent != 0) child_ns[r.parent] += r.dur_ns;
  }
  std::vector<double> root_self;
  for (const obs::SpanRecord& r : dump.spans) {
    if (r.name != "bench.realization") continue;
    // The realization root's self time excludes its layer children and
    // the reference run, leaving the replay's own glue code.
    const std::uint64_t kids = child_ns[r.id];
    root_self.push_back(
        static_cast<double>(r.dur_ns > kids ? r.dur_ns - kids : 0) / 1e3);
  }
  const auto sum = [](const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return s;
  };
  sheet.set("storm.track_us", median(us["storm.track"]), "us");
  sheet.set("surge.envelope_us", median(us["surge.envelope"]), "us");
  sheet.set("mesh.smoothing_us", median(us["mesh.smoothing"]), "us");
  sheet.set("surge.alongshore_us", median(us["surge.alongshore"]), "us");
  sheet.set("surge.harbor_us", median(us["surge.harbor"]), "us");
  sheet.set("surge.asset_bind_us", median(us["surge.asset_bind"]), "us");
  sheet.set("surge.realization_us", median(us["surge.realization"]), "us");
  sheet.set("core.classify_us", median(us["core.classify"]), "us");
  sheet.set("obs.replay_self_us", median(root_self), "us");
  sheet.set("surge.active_nodes",
            static_cast<double>(bindings.active_nodes().size()), "count");
  const double replica_total =
      sum(us["storm.track"]) + sum(us["surge.envelope"]) +
      sum(us["mesh.smoothing"]) + sum(us["surge.alongshore"]) +
      sum(us["surge.harbor"]) + sum(us["surge.asset_bind"]);
  sheet.set("surge.envelope_share",
            replica_total > 0 ? sum(us["surge.envelope"]) / replica_total : 0,
            "ratio");
  const double layer_s =
      (sum(us["surge.realization"]) + sum(us["core.classify"])) / 1e6;
  sheet.set("runtime.overhead_s", sweep_serial_s - layer_s, "s");
}

}  // namespace

void run_paper_cold(const Context& ctx, Sheet& sheet) {
  const service::Request cold = analyze_request(/*no_cache=*/true);
  const service::Request warm = analyze_request(/*no_cache=*/false);
  const std::string cache_dir = ctx.tmp + "/cache";
  warm_up_surge(ctx);
  std::vector<double> setup;

  auto serial = build_runner(cold, case_options(ctx, 1), setup);
  auto parallel = build_runner(cold, case_options(ctx, ctx.nproc), setup);

  // Serial and parallel cold sweeps interleave (S P P S P P, then P until
  // the measuring time is used up), so a transient slowdown of the host
  // lands on both sides instead of on one.
  std::vector<double> serial_s;
  std::vector<double> parallel_s;
  std::map<std::string, std::vector<double>> pool;  // per parallel sweep
  std::string reference;
  double measured = 0.0;
  while (serial_s.size() < kSerialReps || parallel_s.size() < 4 ||
         (measured < ctx.seconds && parallel_s.size() < 15)) {
    const bool serial_turn = serial_s.size() < kSerialReps &&
                             parallel_s.size() >= 2 * serial_s.size();
    double s = 0.0;
    MetricsDelta delta;
    const service::ExecOutcome out =
        timed_execute(cold, serial_turn ? *serial : *parallel, s);
    delta.stop();
    if (!serial_turn) {
      pool["tasks"].push_back(delta.counter("pool.tasks"));
      pool["steals"].push_back(delta.counter("pool.steals"));
      pool["inline"].push_back(delta.counter("pool.inline_runs"));
      pool["peak"].push_back(delta.counter("pool.queue_depth_peak"));
      pool["slice_ms"].push_back(delta.hist_mean("ensemble.slice_us") / 1e3);
    }
    tally(sheet, out);
    if (reference.empty()) {
      reference = out.output;
      check_golden(ctx, sheet, reference, "cold");
    }
    sheet.gate(out.output == reference,
               "jobs=1 and jobs=" + std::to_string(ctx.nproc) +
                   " cold reports differ");
    (serial_turn ? serial_s : parallel_s).push_back(s);
    measured += s;
  }

  // Populate a private disk cache, then answer warm from fresh runners.
  auto populate = build_runner(warm, case_options(ctx, ctx.nproc, cache_dir),
                               setup);
  const service::ExecOutcome populated =
      service::execute_request(warm, *populate);
  tally(sheet, populated);
  sheet.gate(populated.output == reference,
             "cache-populating report differs from the cold report");
  populate.reset();

  MetricsDelta cache_delta;
  std::vector<double> warm_ms;
  for (int r = 0; r < 20; ++r) {
    auto fresh = build_runner(warm, case_options(ctx, ctx.nproc, cache_dir),
                              setup);
    double s = 0.0;
    const service::ExecOutcome out = timed_execute(warm, *fresh, s);
    tally(sheet, out);
    sheet.gate(out.output == reference && out.all_from_cache,
               "warm answer differs from the cold report or missed the cache");
    warm_ms.push_back(s * 1e3);
  }
  cache_delta.stop();

  const double sweep_s = median(parallel_s);
  const double sweep_serial_s = median(serial_s);
  sheet.set("setup_s", median(setup), "s");
  sheet.set("sweep_serial_s", sweep_serial_s, "s");
  sheet.set("sweep_s", sweep_s, "s");
  sheet.set("parallel_efficiency", sweep_serial_s / (ctx.nproc * sweep_s),
            "ratio");
  sheet.set("warm_ms", median(warm_ms), "ms");
  sheet.note("serial sweeps: " + std::to_string(serial_s.size()) +
             ", parallel sweeps: " + std::to_string(parallel_s.size()) +
             ", warm answers: " + std::to_string(warm_ms.size()) +
             ", setups: " + std::to_string(setup.size()));

  sheet.set("runtime.pool_tasks", median(pool["tasks"]), "count");
  sheet.set("runtime.pool_steals", median(pool["steals"]), "count");
  sheet.set("runtime.pool_inline_runs", median(pool["inline"]), "count");
  sheet.set("runtime.pool_queue_peak", median(pool["peak"]), "count");
  sheet.set("runtime.slice_ms", median(pool["slice_ms"]), "ms");
  const double lookups = cache_delta.counter("cache.lookups");
  sheet.set("runtime.cache_lookups", lookups / warm_ms.size(), "count");
  sheet.set("runtime.cache_hit_ratio",
            lookups > 0 ? cache_delta.counter("cache.hits") / lookups : 0.0,
            "ratio");
  sheet.set("runtime.cache_disk_hits",
            cache_delta.counter("cache.disk_hits") / warm_ms.size(), "count");
  sheet.set("runtime.cache_lookup_us", cache_delta.hist_mean("cache.lookup_us"),
            "us");

  if (ctx.trace) {
    // Same serial sweep with span tracing on: the tracing overhead.
    obs::set_trace_enabled(true);
    double traced_s = 0.0;
    const service::ExecOutcome traced = timed_execute(cold, *serial, traced_s);
    obs::set_trace_enabled(false);
    sheet.gate(traced.output == reference,
               "traced report differs from the untraced report");
    sheet.set("obs.trace_overhead", traced_s - sweep_serial_s, "s");
    replay(sheet, *serial, sweep_serial_s);
  }
}

namespace {

/// Restored/computed counts from the "checkpoint: ..." line execute_request
/// puts above a checkpointed report; returns the report below it.
std::string split_checkpoint_line(const std::string& output,
                                  std::string& status, std::uint64_t& restored,
                                  std::uint64_t& computed) {
  const std::size_t end = output.find("\n\n");
  if (end == std::string::npos || output.rfind("checkpoint: ", 0) != 0) {
    return output;
  }
  std::istringstream line(output.substr(12, end - 12));
  std::string word;
  std::getline(line, status, ',');
  line >> word >> restored >> word >> word >> computed;
  return output.substr(end + 2);
}

struct Trial {
  double interrupted_s = 0.0;
  double resumed_s = 0.0;
};

/// Slices of the interrupted leg before the token fires.
constexpr std::uint64_t kInterruptAfterSlices = 4;
constexpr std::size_t kSlice = 128;

Trial resume_trial(const Context& ctx, Sheet& sheet, unsigned jobs,
                   const std::string& dir, const std::string& reference,
                   std::vector<double>& setup) {
  const service::Request request = analyze_request(/*no_cache=*/true);
  Trial trial;

  runtime::CheckpointOptions ckpt;
  ckpt.dir = dir;
  ckpt.interval = kSlice;
  ckpt.crash_spec = "none";
  runtime::CancellationToken token;
  std::uint64_t slices = 0;
  ckpt.on_progress = [&](const runtime::SweepProgressEvent&) {
    if (++slices == kInterruptAfterSlices) token.request_cancel();
  };
  {
    obs::Span span("bench.leg.interrupted");
    auto first = build_runner(request, case_options(ctx, jobs), setup);
    const service::ExecOutcome out = timed_execute(
        request, *first, trial.interrupted_s, ckpt, &token);
    sheet.gate(out.interrupted, "the interrupted leg ran to completion");
    sheet.attempt(out.attempted, out.quarantined);
  }

  runtime::CheckpointOptions resume;
  resume.dir = dir;
  resume.interval = kSlice;
  resume.crash_spec = "none";
  resume.resume = true;
  {
    obs::Span span("bench.leg.resumed");
    auto second = build_runner(request, case_options(ctx, jobs), setup);
    const service::ExecOutcome out =
        timed_execute(request, *second, trial.resumed_s, resume);
    tally(sheet, out);
    std::string status;
    std::uint64_t restored = 0;
    std::uint64_t computed = 0;
    const std::string report =
        split_checkpoint_line(out.output, status, restored, computed);
    sheet.gate(status == "resumed", "resumed leg status '" + status + "'");
    sheet.gate(restored + computed == 1000,
               "restored + computed = " + std::to_string(restored + computed));
    sheet.gate(restored == kInterruptAfterSlices * kSlice,
               "restored " + std::to_string(restored) + " realizations");
    sheet.gate(report == reference,
               "resumed report differs from the uninterrupted report");
    sheet.set("runtime.restored", static_cast<double>(restored), "count");
    sheet.set("runtime.executed", static_cast<double>(computed), "count");
  }
  return trial;
}

}  // namespace

void run_paper_resume(const Context& ctx, Sheet& sheet) {
  warm_up_surge(ctx);
  if (ctx.trace) obs::set_trace_enabled(true);
  std::vector<double> setup;
  const service::Request request = analyze_request(/*no_cache=*/true);

  // The uninterrupted report every resumed report must equal.
  auto plain = build_runner(request, case_options(ctx, ctx.nproc), setup);
  double plain_s = 0.0;
  const service::ExecOutcome reference = timed_execute(request, *plain,
                                                       plain_s);
  tally(sheet, reference);
  check_golden(ctx, sheet, reference.output, "uninterrupted");
  plain.reset();

  // Serial and parallel trials interleave like paper-cold's sweeps.
  MetricsDelta ckpt_delta;
  std::vector<double> serial_both;
  std::vector<double> both;
  std::vector<double> resumed;
  double measured = 0.0;
  while (serial_both.size() < kSerialReps || both.size() < 4 ||
         (measured < ctx.seconds && both.size() < 15)) {
    const bool serial_turn = serial_both.size() < kSerialReps &&
                             both.size() >= 2 * serial_both.size();
    const std::size_t trial = serial_both.size() + both.size();
    const Trial t = resume_trial(ctx, sheet, serial_turn ? 1 : ctx.nproc,
                                 ctx.tmp + "/ckpt-" + std::to_string(trial),
                                 reference.output, setup);
    const double total = t.interrupted_s + t.resumed_s;
    if (serial_turn) {
      serial_both.push_back(total);
    } else {
      both.push_back(total);
      resumed.push_back(t.resumed_s);
    }
    measured += total;
  }
  ckpt_delta.stop();

  const double trials = static_cast<double>(both.size() + serial_both.size());
  const double sweep_s = median(both);
  const double serial_s = median(serial_both);
  sheet.set("setup_s", median(setup), "s");
  sheet.set("sweep_s", sweep_s, "s");
  sheet.set("sweep_serial_s", serial_s, "s");
  sheet.set("parallel_efficiency", serial_s / (ctx.nproc * sweep_s), "ratio");
  sheet.set("resume_s", median(resumed), "s");
  sheet.note("resume trials: " + std::to_string(both.size()) + " at jobs=" +
             std::to_string(ctx.nproc) + ", " +
             std::to_string(serial_both.size()) + " at jobs=1");
  sheet.set("runtime.checkpoint_flushes",
            ckpt_delta.counter("checkpoint.flushes") / trials, "count");
  sheet.set("runtime.checkpoint_flush_us",
            ckpt_delta.hist_mean("checkpoint.flush_us"), "us");
  sheet.set("runtime.journal_bytes",
            ckpt_delta.counter("checkpoint.journal_bytes") / trials, "bytes");
  if (ctx.trace) obs::set_trace_enabled(false);
}

}  // namespace ctbench
