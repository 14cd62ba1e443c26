#include "runtime/ensemble_runner.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "terrain/terrain.h"
#include "util/digest.h"

namespace ct::runtime {

namespace {

/// Ensemble-phase telemetry: per-batch latency histograms plus the
/// quarantine/retry counters the fault-isolation machinery folds in.
struct EnsembleMetrics {
  obs::Histogram generate_us{"ensemble.generate_us"};
  obs::Histogram slice_us{"ensemble.slice_us"};
  obs::Counter quarantined{"ensemble.quarantined"};
  obs::Counter retries{"ensemble.retries"};
};

EnsembleMetrics& ensemble_metrics() {
  static EnsembleMetrics m;
  return m;
}

/// Folds an isolated run's quarantine/retry tallies into the registry and
/// marks each as an instant trace event. Called after outcome assembly —
/// pure observation, never part of the computed result.
void fold_guard_result(const IsolatedRunResult& run) {
  EnsembleMetrics& m = ensemble_metrics();
  if (run.retries > 0) {
    m.retries.inc(run.retries);
    obs::trace_instant("ensemble.retry");
  }
  if (!run.failures.empty()) {
    m.quarantined.inc(run.failures.size());
    for (std::size_t i = 0; i < run.failures.size(); ++i) {
      obs::trace_instant("ensemble.quarantine");
    }
  }
}

ResultStoreOptions store_options(const EnsembleOptions& o,
                                 const RuntimeFaultProfile& fault) {
  ResultStoreOptions s;
  s.disk = o.cache && o.disk_cache;
  s.disk_dir = o.cache_dir;
  s.inject_write_failure = fault.cache_write_failure;
  return s;
}

RuntimeFaultProfile resolve_fault(const std::string& spec) {
  return spec.empty() ? RuntimeFaultProfile::from_env()
                      : RuntimeFaultProfile::parse(spec);
}

/// Cooperative stall for the delay rule: sleeps in small slices so the
/// watchdog deadline is honored mid-stall, exactly like a long kernel
/// polling between work units.
void cooperative_delay(std::chrono::milliseconds total,
                       const CancellationToken& token) {
  using namespace std::chrono;
  const steady_clock::time_point until = steady_clock::now() + total;
  while (steady_clock::now() < until) {
    token.poll("fault-delay");
    std::this_thread::sleep_for(milliseconds(1));
  }
  token.poll("fault-delay");
}

/// Realizations per generation task: one realization is the expensive unit
/// (storm + surge solve), so a few per task suffice.
std::size_t generation_chunk(const EnsembleOptions& o) {
  return std::max<std::size_t>(1, o.chunk / 8);
}

}  // namespace

FailureRecord make_failure_record(const TaskFailure& failure,
                                  std::uint64_t fallback_realization,
                                  std::uint64_t fallback_seed) {
  FailureRecord record;
  record.realization = fallback_realization;
  record.seed = fallback_seed;
  record.attempts = failure.attempts;
  record.code = util::classify_exception(failure.error);
  record.message = util::describe_exception(failure.error);
  try {
    if (failure.error) std::rethrow_exception(failure.error);
  } catch (const util::Error& e) {
    record.origin = e.origin();
    record.message = e.message();
    if (e.has_provenance()) {
      record.realization = e.realization();
      record.seed = e.seed();
    }
  } catch (...) {
    // Foreign exception: keep the normalized what() and fallbacks.
  }
  return record;
}

namespace {

void digest_impact(util::Digest& d, const surge::AssetImpact& impact) {
  d.str(impact.asset_id)
      .boolean(impact.failed)
      .f64(impact.inundation_depth_m)
      .boolean(impact.wind_failed);
}

void digest_realization(util::Digest& d,
                        const surge::HurricaneRealization& r) {
  d.u64(r.index).f64(r.peak_wind_ms).f64(r.max_shoreline_wse_m);
  d.u64(r.impacts.size());
  for (const surge::AssetImpact& impact : r.impacts) digest_impact(d, impact);
}

void digest_configuration(util::Digest& d, const scada::Configuration& c) {
  d.str(c.name)
      .i64(static_cast<int>(c.style))
      .i64(c.intrusion_tolerance_f)
      .i64(c.proactive_recovery_k)
      .boolean(c.active_multisite)
      .i64(c.min_active_sites);
  d.u64(c.sites.size());
  for (const scada::ControlSite& s : c.sites) {
    d.str(s.asset_id)
        .i64(static_cast<int>(s.role))
        .i64(s.replicas)
        .boolean(s.hot);
  }
}

// Every knob of the realization pipeline. If you add a field to any of
// these structs, add it here too — a missed field would let the disk cache
// return results for the OLD semantics. The probe realization mixed into
// digest_engine_batch() is defense in depth, not a substitute.
void digest_realization_config(util::Digest& d,
                               const surge::RealizationConfig& c) {
  d.f64(c.mesh.shore_spacing_m)
      .f64(c.mesh.cross_shore_spacing_m)
      .f64(c.mesh.offshore_extent_m)
      .f64(c.mesh.inland_extent_m);
  d.f64(c.surge.dt_s)
      .f64(c.surge.wind_setup_scale_m)
      .f64(c.surge.wind_setup_exponent)
      .f64(c.surge.wave_setup_per_ms)
      .f64(c.surge.min_depth_m)
      .f64(c.surge.max_considered_distance_m)
      .f64(c.surge.wind_options.surface_wind_factor)
      .f64(c.surge.wind_options.inflow_angle_deg)
      .f64(c.surge.wind_options.translation_fraction);
  d.f64(c.inundation.decay_length_m).f64(c.inundation.failure_threshold_m);
  const storm::TrackEnsembleConfig& e = c.ensemble;
  d.f64(e.base_aim.lat_deg)
      .f64(e.base_aim.lon_deg)
      .f64(e.base_heading_deg)
      .f64(e.approach_distance_m)
      .f64(e.departure_distance_m)
      .f64(e.forward_speed_ms)
      .f64(e.forward_speed_jitter_ms)
      .f64(e.cross_track_sigma_m)
      .f64(e.heading_sigma_deg)
      .f64(e.pressure_deficit_pa)
      .f64(e.pressure_deficit_sigma_pa)
      .f64(e.rmax_m)
      .f64(e.rmax_sigma_m)
      .f64(e.rmax_min_m)
      .f64(e.rmax_max_m)
      .f64(e.holland_b)
      .f64(e.holland_b_sigma)
      .f64(e.fix_interval_s)
      .f64(e.ambient_pressure_pa);
  d.boolean(c.harbor.enabled)
      .f64(c.harbor.ray_length_m)
      .f64(c.harbor.ray_step_m)
      .f64(c.harbor.ray_clearance_m)
      .f64(c.harbor.amplification);
  d.boolean(c.fragility.enabled)
      .f64(c.fragility.substation.median_wind_ms)
      .f64(c.fragility.substation.beta)
      .f64(c.fragility.power_plant.median_wind_ms)
      .f64(c.fragility.power_plant.beta)
      .f64(c.fragility.scan_dt_s);
  d.f64(c.smoothing_band_m)
      .i64(c.smoothing_passes)
      .i64(c.alongshore_window)
      .f64(c.sea_level_offset_m)
      .u64(c.base_seed);
}

}  // namespace

EnsembleRunner::EnsembleRunner(EnsembleOptions options)
    : options_(std::move(options)), fault_(resolve_fault(options_.fault_spec)),
      pool_(options_.jobs), store_(store_options(options_, fault_)) {
  if (options_.chunk == 0) options_.chunk = 1;
}

util::Interval EnsembleReport::mass_bound(std::size_t bucket,
                                          double confidence) const noexcept {
  if (attempted == 0 || bucket >= counts.counts.size()) return {0.0, 1.0};
  const std::uint64_t k = counts.counts[bucket];
  // Exact CI for the bucket probability among the COMPLETED samples...
  const util::Interval cp =
      util::clopper_pearson_interval(static_cast<std::size_t>(k), completed,
                                     confidence);
  // ...then account for the quarantined mass: at one extreme none of the
  // quarantined realizations belong to this bucket, at the other all do.
  const double n = static_cast<double>(attempted);
  const double m = static_cast<double>(completed);
  const double q = static_cast<double>(attempted - completed);
  return {std::max(0.0, cp.lo * m / n), std::min(1.0, (cp.hi * m + q) / n)};
}

TaskOptions EnsembleRunner::task_options() const noexcept {
  TaskOptions task_options;
  task_options.timeout = options_.task_timeout;
  task_options.max_retries = options_.max_retries;
  return task_options;
}

std::optional<EnsembleReport> EnsembleRunner::cached(const std::string& key) {
  if (!options_.cache || key.empty()) return std::nullopt;
  const std::optional<CachedCounts> record = store_.lookup(key);
  if (!record) return std::nullopt;
  EnsembleReport hit;
  hit.counts.counts = record->counts;
  hit.counts.total = record->total;
  hit.counts.from_cache = true;
  hit.attempted = hit.completed = static_cast<std::size_t>(record->total);
  return hit;
}

void EnsembleRunner::store_if_clean(const std::string& key,
                                    const EnsembleReport& report) {
  // A stored record asserts "this key's full distribution": a partial one
  // would poison every warm rerun.
  if (!options_.cache || key.empty() || report.degraded()) return;
  CachedCounts record;
  record.counts = report.counts.counts;
  record.total = report.counts.total;
  store_.store(key, record);
}

surge::HurricaneRealization EnsembleRunner::realize(
    const surge::RealizationEngine& engine, std::uint64_t index,
    unsigned attempt, const CancellationToken& token) const {
  const std::uint64_t seed = engine.config().base_seed;
  if (fault_.throw_rule.fires(index, attempt)) {
    throw util::Error(util::ErrorCode::kFaultInjected, "fault-injection",
                      "injected realization failure", index, seed);
  }
  if (fault_.delay_rule.fires(index, attempt)) {
    cooperative_delay(fault_.delay, token);
  }
  surge::HurricaneRealization r = engine.run(index);
  if (fault_.nan_rule.fires(index, attempt)) {
    // Poison the surge output, then run the SAME guard production data
    // passes through — the injection proves the guard trips.
    r.max_shoreline_wse_m = std::numeric_limits<double>::quiet_NaN();
    surge::validate_realization(r, seed);
  }
  token.poll("ensemble-generate");
  return r;
}

GeneratedBatch EnsembleRunner::generate_guarded(
    const surge::RealizationEngine& engine, std::size_t count) {
  obs::Span span("ensemble.generate");
  obs::ScopedTimer timer(ensemble_metrics().generate_us);
  GeneratedBatch batch;
  batch.attempted = count;

  std::vector<surge::HurricaneRealization> slots(count);
  IsolatedRunResult run = pool_.for_each_isolated(
      count, generation_chunk(options_),
      [&](std::size_t i, unsigned attempt, const CancellationToken& token) {
        slots[i] = realize(engine, static_cast<std::uint64_t>(i), attempt,
                           token);
      },
      task_options());

  fold_guard_result(run);
  const std::uint64_t seed = engine.config().base_seed;
  batch.ledger.retries = run.retries;
  std::vector<bool> quarantined(count, false);
  batch.ledger.failures.reserve(run.failures.size());
  for (const TaskFailure& f : run.failures) {
    quarantined[f.index] = true;
    batch.ledger.failures.push_back(
        make_failure_record(f, static_cast<std::uint64_t>(f.index), seed));
  }
  batch.realizations.reserve(count - run.failures.size());
  for (std::size_t i = 0; i < count; ++i) {
    if (!quarantined[i]) batch.realizations.push_back(std::move(slots[i]));
  }
  return batch;
}

ResumableReport EnsembleRunner::run_resumable(
    const EngineFn& engine_fn, const SweepSpec& spec,
    const ClassifyFn& outcome, const CheckpointOptions& ckpt,
    CancellationToken* interrupt) {
  ResumableReport report;
  report.series.assign(spec.series.size(), EnsembleReport{});

  // Cache pass: a series whose full distribution is already stored needs
  // no realizations at all. Only the remaining LIVE series join the sweep,
  // and the journal is keyed by them, so a checkpoint taken with a
  // different set of outstanding series can never resume.
  std::vector<std::size_t> live;  // spec.series index per live series
  SweepSpec live_spec{spec.digest, spec.count, {}};
  for (std::size_t s = 0; s < spec.series.size(); ++s) {
    if (std::optional<EnsembleReport> hit = cached(spec.series[s])) {
      report.series[s] = std::move(*hit);
      continue;
    }
    live.push_back(s);
    live_spec.series.push_back(spec.series[s]);
  }
  const std::size_t nseries = live.size();
  if (nseries == 0) return report;
  const surge::RealizationEngine& engine = engine_fn();

  SweepProgress progress;
  progress.series.assign(nseries, SeriesCounts{});

  // The journal is optional and soft: an empty dir means a plain sweep,
  // and any durable-write failure downgrades to one mid-flight.
  std::optional<SweepJournal> journal;
  bool journal_on = false;
  if (!ckpt.dir.empty()) {
    journal.emplace(ckpt, live_spec);
    if (ckpt.resume) report.resume = journal->load(progress);
    journal_on = journal->begin();
  }
  report.restored = progress.completed();

  const std::uint64_t seed = engine.config().base_seed;
  const std::uint64_t interval =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(ckpt.interval));

  // Walk the MISSING set in ascending slices of `interval` realizations.
  // Each slice is generated + classified in parallel, folded in ascending
  // index order (bit-identity at any --jobs), then journaled as one
  // record. Interruption is honored at slice boundaries only: the previous
  // slice's record is already fsync'd, so there is nothing left to flush.
  for (const auto& [gap_begin, gap_end] : progress.missing(spec.count)) {
    for (std::uint64_t b = gap_begin; b < gap_end && !report.interrupted;
         b += interval) {
      if (interrupt != nullptr && interrupt->cancelled()) {
        report.interrupted = true;
        break;
      }
      const std::uint64_t e = std::min<std::uint64_t>(b + interval, gap_end);
      const std::size_t n = static_cast<std::size_t>(e - b);

      obs::Span slice_span("ensemble.slice");
      obs::ScopedTimer slice_timer(ensemble_metrics().slice_us);
      std::vector<std::int8_t> buckets(n * nseries, 0);
      IsolatedRunResult run = pool_.for_each_isolated(
          n, generation_chunk(options_),
          [&](std::size_t k, unsigned attempt,
              const CancellationToken& token) {
            const surge::HurricaneRealization r =
                realize(engine, b + k, attempt, token);
            // One generation, K classifications: a quarantined index is
            // quarantined in every series.
            for (std::size_t s = 0; s < nseries; ++s) {
              buckets[k * nseries + s] =
                  static_cast<std::int8_t>(outcome(live[s], r));
            }
          },
          task_options());
      fold_guard_result(run);

      std::vector<bool> failed(n, false);
      std::vector<FailureRecord> slice_failures;
      slice_failures.reserve(run.failures.size());
      for (const TaskFailure& f : run.failures) {
        failed[f.index] = true;
        slice_failures.push_back(make_failure_record(
            f, b + static_cast<std::uint64_t>(f.index), seed));
      }
      std::sort(slice_failures.begin(), slice_failures.end(),
                [](const FailureRecord& x, const FailureRecord& y) {
                  return x.realization < y.realization;
                });

      std::vector<SeriesCounts> delta(nseries, SeriesCounts{});
      for (std::size_t k = 0; k < n; ++k) {
        if (failed[k]) continue;
        for (std::size_t s = 0; s < nseries; ++s) {
          ++delta[s][static_cast<std::size_t>(buckets[k * nseries + s]) &
                     (delta[s].size() - 1)];
        }
      }

      progress.merge_range(b, e);
      for (std::size_t s = 0; s < nseries; ++s) {
        for (std::size_t c = 0; c < delta[s].size(); ++c) {
          progress.series[s][c] += delta[s][c];
        }
      }
      progress.failures.insert(progress.failures.end(),
                               slice_failures.begin(), slice_failures.end());
      progress.retries += run.retries;
      report.executed += n;

      if (journal_on) {
        journal_on =
            journal->append(b, e, delta, slice_failures, run.retries);
      }

      if (ckpt.on_progress) {
        SweepProgressEvent event;
        event.done = progress.completed();
        event.total = spec.count;
        event.quarantined = progress.failures.size();
        event.retries = progress.retries;
        ckpt.on_progress(event);
      }
    }
    if (report.interrupted) break;
  }

  if (journal) {
    if (!report.interrupted && journal_on) {
      journal->finish();
    } else {
      // Leave the files for the next --resume.
      journal->close();
    }
    report.checkpoints = journal->writes();
  }

  // Restored failures live inside `done` ranges, which interleave with the
  // gaps this run filled — re-sort so every series ledger is ascending.
  std::sort(progress.failures.begin(), progress.failures.end(),
            [](const FailureRecord& x, const FailureRecord& y) {
              return x.realization < y.realization;
            });
  const std::uint64_t attempted = progress.completed();
  for (std::size_t s = 0; s < nseries; ++s) {
    EnsembleReport& r = report.series[live[s]];
    r.counts.counts = progress.series[s];
    r.counts.total = 0;
    for (const std::uint64_t c : progress.series[s]) r.counts.total += c;
    r.failures = progress.failures;
    r.retries = progress.retries;
    r.attempted = static_cast<std::size_t>(attempted);
    r.completed = static_cast<std::size_t>(attempted) - progress.failures.size();
    // An interrupted series is partial even when nothing was quarantined.
    if (!report.interrupted) store_if_clean(spec.series[live[s]], r);
  }
  return report;
}

std::string EnsembleRunner::job_key(const scada::Configuration& config,
                                    threat::ThreatScenario scenario,
                                    std::string_view attacker_tag,
                                    std::string_view realization_set_digest) {
  util::Digest d;
  d.str("ct-job").i64(ResultStore::kFormatVersion);
  digest_configuration(d, config);
  d.i64(static_cast<int>(scenario));
  d.str(attacker_tag);
  d.str(realization_set_digest);
  return d.hex();
}

std::string EnsembleRunner::digest_realizations(
    const std::vector<surge::HurricaneRealization>& realizations) {
  util::Digest d;
  d.str("ct-realization-set").u64(realizations.size());
  for (const surge::HurricaneRealization& r : realizations) {
    digest_realization(d, r);
  }
  return d.hex();
}

std::string EnsembleRunner::digest_engine_batch(
    const surge::RealizationEngine& engine, std::size_t count) {
  util::Digest d;
  d.str("ct-engine-batch").u64(count);
  digest_realization_config(d, engine.config());
  // The config alone does not identify the inputs: two engines with equal
  // configs but different terrains (or different mesh-derived precompute)
  // must never share cached results.
  terrain::digest_terrain(engine.terrain(), d);
  engine.bindings().digest_into(d);
  d.u64(engine.assets().size());
  for (const surge::ExposedAsset& a : engine.assets()) {
    d.str(a.id)
        .f64(a.location.lat_deg)
        .f64(a.location.lon_deg)
        .f64(a.ground_elevation_m)
        .i64(static_cast<int>(a.exposure_class));
  }
  // Defense in depth against a RealizationConfig field missing above: the
  // first realization's full content responds to most knobs.
  if (count > 0) digest_realization(d, engine.run(0));
  return d.hex();
}

}  // namespace ct::runtime
