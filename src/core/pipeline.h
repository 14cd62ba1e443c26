// The analysis pipeline of the paper's Fig. 5:
//
//   geospatial SCADA topology + hurricane realizations
//     -> post-natural-disaster system states
//     -> worst-case cyberattack
//     -> operational-state classification (Table I)
//     -> outcome probabilities.
#pragma once

#include <array>
#include <iosfwd>
#include <string>
#include <vector>

#include "runtime/ensemble_runner.h"
#include "scada/configuration.h"
#include "surge/realization.h"
#include "threat/attacker.h"
#include "threat/scenario.h"
#include "threat/system_state.h"

namespace ct::core {

/// Empirical distribution over the four operational states.
class OutcomeDistribution {
 public:
  void add(threat::OperationalState s) noexcept;
  /// Bulk insert: `n` outcomes in state `s` (cache hydration, chunk merge).
  void add(threat::OperationalState s, std::size_t n) noexcept;

  std::size_t count(threat::OperationalState s) const noexcept;
  std::size_t total() const noexcept { return total_; }
  /// Fraction of outcomes in state `s` (0 when empty).
  double probability(threat::OperationalState s) const noexcept;
  /// Expected badness (0=green .. 3=gray) under this distribution.
  double expected_badness() const noexcept;

 private:
  std::array<std::size_t, 4> counts_{};
  std::size_t total_ = 0;
};

/// Result of analyzing one configuration under one threat scenario.
struct ScenarioResult {
  std::string config_name;
  threat::ThreatScenario scenario{};
  /// PARTIAL distribution when degraded(): only completed realizations.
  OutcomeDistribution outcomes;
  /// True when the outcomes were served by the runtime's result cache
  /// instead of being recomputed (the sweep only).
  bool from_cache = false;

  // Fault-isolation accounting (the sweep only; serial analyze() is
  // batch-fatal and always reports a clean run).
  /// Quarantined realizations, ascending by realization index.
  std::vector<runtime::FailureRecord> failures;
  /// Extra attempts spent on retries (healed and exhausted).
  std::uint64_t retries = 0;
  /// Realizations requested / completed (equal on a clean run).
  std::size_t attempted = 0;
  std::size_t completed = 0;

  bool degraded() const noexcept { return !failures.empty(); }
  /// Conservative bounds on the true probability of state `s` had every
  /// quarantined realization completed (Clopper-Pearson widened by the
  /// quarantined mass; see EnsembleReport::mass_bound).
  util::Interval mass_bound(threat::OperationalState s,
                            double confidence = 0.95) const noexcept;
};

/// Realizations parsed from a CSV stream, plus the malformed rows that
/// were skipped instead of aborting the sweep.
struct LoadedRealizations {
  std::vector<surge::HurricaneRealization> realizations;
  std::size_t skipped_rows = 0;
  /// One typed record per skipped row: code kParse, message carrying
  /// "<source>:<line>: <why>" so the operator can fix the exact row.
  std::vector<util::Error> errors;
};

/// Parses the realization interchange CSV
///
///   realization,flooded_assets,peak_wind_ms,max_wse_m
///   17,sub-honolulu;cc-waiau,43.1,1.82
///
/// (`flooded_assets` is ';'-separated, possibly empty). A malformed row —
/// wrong field count, unparsable or non-finite number — is skipped,
/// counted, recorded as a ct::Error (with `source_name` and the 1-based
/// line number), and logged as a warning; the rest of the sweep proceeds.
LoadedRealizations load_realizations_csv(
    std::istream& in, std::string_view source_name = "realizations.csv");

/// Writes the same interchange format (round-trips through
/// load_realizations_csv for the fields the analysis consumes).
void write_realizations_csv(
    std::ostream& out,
    const std::vector<surge::HurricaneRealization>& realizations);

/// One cell of a resumable sweep matrix: a (configuration, scenario)
/// pair analyzed over the same realization ensemble. The configuration is
/// borrowed; it must outlive the analyze_resumable call.
struct SweepCell {
  const scada::Configuration* config = nullptr;
  threat::ThreatScenario scenario{};
};

/// Output of analyze_resumable: per-cell results plus how the checkpoint
/// layer behaved.
struct ResumableAnalysis {
  std::vector<ScenarioResult> results;  ///< one per cell, in cell order
  runtime::ResumeInfo resume;
  bool interrupted = false;     ///< cancelled mid-sweep; progress saved
  std::uint64_t restored = 0;   ///< realization indices replayed from disk
  std::uint64_t executed = 0;   ///< realization indices computed this run
  std::uint64_t checkpoints = 0;  ///< durable checkpoint writes this run
  std::size_t cached_cells = 0;   ///< cells served whole from the cache

  bool complete() const noexcept { return !interrupted; }
  /// Cells [s * width, (s + 1) * width): scenario `s`'s row of a
  /// (configurations x scenarios) sweep over `width` configurations.
  std::vector<ScenarioResult> row(std::size_t s, std::size_t width) const;
};

/// Which attacker model drives the cyberattack stage.
enum class AttackerModel {
  kGreedy,      ///< The paper's 3-rule worst-case algorithm (default).
  kExhaustive,  ///< Brute-force worst case (validation / novel configs).
};

/// Stateless analysis engine. Thread-compatible: all methods are const.
class AnalysisPipeline {
 public:
  explicit AnalysisPipeline(AttackerModel model = AttackerModel::kGreedy)
      : model_(model) {}

  /// Classifies one (configuration, scenario, realization) triple: derives
  /// the post-disaster state, applies the worst-case attack, evaluates the
  /// final state.
  threat::OperationalState outcome_for(
      const scada::Configuration& config, threat::ThreatScenario scenario,
      const surge::HurricaneRealization& realization) const;

  /// Serial reference: aggregates outcome probabilities over a
  /// realization set on the calling thread. Batch-fatal, no cache.
  ScenarioResult analyze(
      const scada::Configuration& config, threat::ThreatScenario scenario,
      const std::vector<surge::HurricaneRealization>& realizations) const;

  /// Crash-consistent sweep matrix: analyzes every (configuration,
  /// scenario) cell over realizations [0, count) from `engine`, generating
  /// each realization ONCE and classifying it into every live cell (a
  /// cell already in the result cache is served from it and never touches
  /// the sweep). With ckpt.resume, the prior journal is
  /// validated and replayed so only missing realizations run; the merged
  /// results are bit-identical at any --jobs value to an uninterrupted
  /// run. `interrupt` stops the sweep at the next checkpoint boundary
  /// after a final flush (SIGINT/SIGTERM path): the returned analysis then
  /// has interrupted=true and partial distributions, and the on-disk state
  /// feeds the next --resume. See runtime/checkpoint.h for the journal.
  /// `engine` is called only when some realization must run (see
  /// EnsembleRunner::EngineFn); it may return an engine scoped to the
  /// cells' sites. `realization_set_digest` is the content address of the
  /// ensemble, EnsembleRunner::digest_engine_batch(full engine, count); it
  /// keys both the result cache and the journal (callers cache it:
  /// computing it runs one realization).
  ResumableAnalysis analyze_resumable(
      const std::vector<SweepCell>& cells,
      const runtime::EnsembleRunner::EngineFn& engine, std::size_t count,
      runtime::EnsembleRunner& runtime,
      std::string_view realization_set_digest,
      const runtime::CheckpointOptions& ckpt,
      runtime::CancellationToken* interrupt = nullptr) const;

  AttackerModel attacker_model() const noexcept { return model_; }
  /// Cache-key tag naming the attack algorithm of this pipeline.
  std::string_view attacker_tag() const noexcept;

 private:
  AttackerModel model_;
};

}  // namespace ct::core
