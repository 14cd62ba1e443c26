// EnsembleRunner — the shared execution engine every Monte Carlo sweep in
// the repo routes through (core/pipeline, core/case_study, core/siting,
// core/restoration, core/chaos, the figure benches, ctctl).
//
// It combines the work-stealing TaskPool with the content-addressed
// ResultStore. Every classifying consumer counts through one path,
// run_resumable: each realization is generated once and classified into
// every series of a sweep matrix, with an optional checkpoint journal.
// generate_guarded materializes the survivors only for callers that read
// the realizations themselves (downtime's restoration fold, the
// flood-probability helpers, the benches).
//
// Both run each realization inside TaskPool::for_each_isolated through one
// per-index body (realize). A failing realization is retried
// deterministically with the SAME seed (realization i is a pure function of
// (base_seed, i), so a retry either heals a transient fault or reproduces a
// deterministic one), then quarantined into a FailureRecord. Outcomes land
// in per-index bucket slots folded in ascending index order, so the partial
// distribution is bit-identical at any --jobs value, and EnsembleReport
// bounds how much probability mass the quarantined samples could move
// (Clopper-Pearson). A (topology, configuration, scenario, realization set,
// attacker) digest addresses the result cache, so repeated sweeps over the
// same inputs skip the recomputation entirely.
//
// Layering: runtime sits BELOW core (it sees configurations, scenarios and
// realizations, but not the analysis pipeline); core passes the per-
// realization outcome as a callable. This keeps the dependency graph
// acyclic while letting every core module share one pool and one cache.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/checkpoint.h"
#include "runtime/fault_profile.h"
#include "runtime/result_store.h"
#include "runtime/task_pool.h"
#include "scada/configuration.h"
#include "surge/realization.h"
#include "threat/scenario.h"
#include "util/error.h"
#include "util/stats.h"

namespace ct::runtime {

struct EnsembleOptions {
  /// Worker threads: 0 = hardware concurrency, 1 = strictly serial.
  unsigned jobs = 0;
  /// Realizations per task; chunk boundaries are thread-count independent.
  std::size_t chunk = 16;
  /// In-memory result cache.
  bool cache = true;
  /// On-disk result cache (under cache_dir / CT_CACHE_DIR / ~/.cache/ct).
  bool disk_cache = false;
  std::string cache_dir;
  /// Retries of a failed realization (same seed) before quarantine.
  unsigned max_retries = 2;
  /// Cooperative per-attempt watchdog deadline; 0 = no watchdog.
  std::chrono::milliseconds task_timeout{0};
  /// Fault-injection spec: "" defers to the CT_FAULT environment variable,
  /// "none" is explicitly off (ignores the environment), anything else is
  /// parsed by RuntimeFaultProfile::parse.
  std::string fault_spec;
};

/// An outcome histogram as the runtime sees it (core converts to its
/// OutcomeDistribution).
struct EnsembleCounts {
  std::array<std::uint64_t, 4> counts{};
  std::uint64_t total = 0;
  bool from_cache = false;
};

// FailureRecord / FailureLedger live in runtime/checkpoint.h (the journal
// persists them), re-exported here for every existing consumer.

/// TaskFailure -> FailureRecord, preferring the exception's own provenance
/// (a ct::Error knows its realization and seed) over the fallbacks.
FailureRecord make_failure_record(const TaskFailure& failure,
                                  std::uint64_t fallback_realization,
                                  std::uint64_t fallback_seed);

/// Output of generate_guarded: the surviving realizations (ascending index
/// order, quarantined slots removed) plus the failure ledger.
struct GeneratedBatch {
  std::vector<surge::HurricaneRealization> realizations;
  FailureLedger ledger;
  std::size_t attempted = 0;
  bool complete() const noexcept { return ledger.failures.empty(); }
};

/// Outcome of a guarded analysis: the partial histogram over surviving
/// realizations plus the quarantine ledger and enough accounting to bound
/// what the quarantined mass could have changed.
struct EnsembleReport {
  EnsembleCounts counts;                ///< partial distribution (survivors)
  std::vector<FailureRecord> failures;  ///< quarantined, by index
  std::uint64_t retries = 0;
  std::size_t attempted = 0;  ///< realizations the caller asked for
  std::size_t completed = 0;  ///< attempted - failures.size()

  std::size_t quarantined() const noexcept { return failures.size(); }
  bool degraded() const noexcept { return !failures.empty(); }

  /// Conservative bounds on the TRUE probability of outcome `bucket` had
  /// every quarantined realization completed: a Clopper-Pearson interval
  /// on (count, completed) widened by the quarantined mass — the
  /// quarantined samples might all have landed in this bucket (upper) or
  /// none of them (lower). Exact-method coverage >= `confidence`.
  util::Interval mass_bound(std::size_t bucket,
                            double confidence = 0.95) const noexcept;
};

/// Output of run_resumable: one EnsembleReport per sweep series, plus how
/// the checkpoint layer behaved.
struct ResumableReport {
  std::vector<EnsembleReport> series;  ///< one per SweepSpec::series entry
  ResumeInfo resume;                   ///< how the prior state was used
  bool interrupted = false;   ///< cancelled before completion; state saved
  std::uint64_t restored = 0;  ///< indices restored from the checkpoint
  std::uint64_t executed = 0;  ///< indices actually computed by THIS run
  std::uint64_t checkpoints = 0;  ///< durable writes performed by this run

  bool complete() const noexcept { return !interrupted; }
};

class EnsembleRunner {
 public:
  explicit EnsembleRunner(EnsembleOptions options = {});

  /// Classifies one realization into a bucket [0, 4) PER SERIES: called
  /// once per (series, realization) pair; `series` indexes
  /// SweepSpec::series. run_resumable generates each realization exactly
  /// once and classifies it into every series — this is what lets a
  /// (configurations x scenarios) sweep matrix share one ensemble pass.
  using ClassifyFn =
      std::function<int(std::size_t series, const surge::HurricaneRealization&)>;
  /// Lazily supplies the engine a sweep generates from; only called when
  /// some realization must run, so a fully cached sweep never derives it.
  using EngineFn = std::function<const surge::RealizationEngine&()>;

  /// Fault-isolated generation: each realization runs under per-task
  /// exception capture with the options' watchdog/retry policy, the active
  /// fault profile injected around the engine call. Survivors come back in
  /// ascending index order, so with an empty ledger the batch is
  /// bit-identical to the engine's serial run_batch.
  GeneratedBatch generate_guarded(const surge::RealizationEngine& engine,
                                  std::size_t count);

  /// Crash-consistent sweep: generates realizations [0, spec.count) in
  /// slices of ckpt.interval, classifies each survivor into every series
  /// via `outcome`, and journals every completed slice (see checkpoint.h).
  /// With ckpt.resume set, the prior journal is validated and
  /// replayed first and only the MISSING indices run; the merged result is
  /// bit-identical at any --jobs value to an uninterrupted run. Fault
  /// semantics match generate_guarded (the same per-index body and the
  /// same retry-then-quarantine policy; a quarantined index is quarantined
  /// in ALL series). `interrupt` (optional) stops the sweep at the next
  /// slice boundary after a final checkpoint flush — the SIGINT/SIGTERM
  /// path; the report then has interrupted=true and partial counts. An
  /// empty ckpt.dir degrades to a plain non-durable sweep. Each
  /// spec.series entry is also that series' result-cache key ("" bypasses
  /// the cache): a cached series is served whole and never joins the
  /// sweep, and a series is stored only when the sweep completed it clean.
  ResumableReport run_resumable(const EngineFn& engine, const SweepSpec& spec,
                                const ClassifyFn& outcome,
                                const CheckpointOptions& ckpt,
                                CancellationToken* interrupt = nullptr);

  /// The active fault-injection profile (empty unless CT_FAULT or
  /// options.fault_spec configured one).
  const RuntimeFaultProfile& fault_profile() const noexcept { return fault_; }

  // --- content addressing -------------------------------------------------

  /// Cache key of one (configuration, scenario, attacker, realization-set)
  /// evaluation. `realization_set_digest` comes from one of the digest_*
  /// helpers below; `attacker_tag` names the attack algorithm ("greedy",
  /// "exhaustive", ...).
  static std::string job_key(const scada::Configuration& config,
                             threat::ThreatScenario scenario,
                             std::string_view attacker_tag,
                             std::string_view realization_set_digest);

  /// Content digest of a realization set (covers CSV-loaded ensembles and
  /// any engine output: asset ids, failure flags, depths, winds all mix in,
  /// so topology moves and SLR offsets change the address automatically).
  static std::string digest_realizations(
      const std::vector<surge::HurricaneRealization>& realizations);

  /// Cheap identity digest for an engine-generated set: the engine's knobs
  /// (seed, SLR offset, smoothing, ensemble shape), the exposed-asset list,
  /// and the count determine the content, so hashing them is equivalent to
  /// hashing the output — without generating it first.
  static std::string digest_engine_batch(const surge::RealizationEngine& engine,
                                         std::size_t count);

  TaskPool& pool() noexcept { return pool_; }
  const EnsembleOptions& options() const noexcept { return options_; }
  ResultStore::Stats cache_stats() const { return store_.stats(); }

 private:
  /// The per-index generation body shared by generate_guarded and
  /// run_resumable: the throw and delay rules, engine.run, the NaN rule,
  /// then the watchdog poll. One body is what makes both shapes
  /// quarantine the same indices under the same CT_FAULT profile.
  surge::HurricaneRealization realize(const surge::RealizationEngine& engine,
                                      std::uint64_t index, unsigned attempt,
                                      const CancellationToken& token) const;
  TaskOptions task_options() const noexcept;

  // The result-cache policy, in one place: only complete, clean runs are
  // stored, so a hit is reported as a complete, clean run.
  std::optional<EnsembleReport> cached(const std::string& key);
  void store_if_clean(const std::string& key, const EnsembleReport& report);

  EnsembleOptions options_;
  RuntimeFaultProfile fault_;  // must init before store_ (cache-write rule)
  TaskPool pool_;
  ResultStore store_;
};

/// EngineFn for an engine the caller already holds (it must outlive the
/// sweep).
inline EnsembleRunner::EngineFn fixed_engine(
    const surge::RealizationEngine& engine) {
  return [&engine]() -> const surge::RealizationEngine& { return engine; };
}

}  // namespace ct::runtime
