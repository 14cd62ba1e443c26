// Case-study runner: binds a terrain, a SCADA topology, and the hurricane
// realization engine together so many configurations/scenarios/sitings can
// be analyzed against the same natural-disaster input — exactly how the
// paper's §VI evaluation is structured. run() classifies a whole
// (configurations x scenarios) matrix in one sweep from an engine scoped
// to the configurations' sites; consumers that read realizations
// themselves get a batch kept per site scope.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.h"
#include "runtime/ensemble_runner.h"
#include "scada/asset.h"
#include "surge/realization.h"
#include "terrain/terrain.h"

namespace ct::core {

/// Knobs of a case study.
struct CaseStudyOptions {
  /// Number of hurricane realizations (paper: 1000).
  std::size_t realizations = 1000;
  /// Natural-disaster pipeline parameters.
  surge::RealizationConfig realization{};
  /// Attacker model for the cyberattack stage.
  AttackerModel attacker = AttackerModel::kGreedy;
  /// Execution runtime: --jobs, chunking, result cache (in-memory by
  /// default; enable disk_cache to share results across processes).
  runtime::EnsembleOptions runtime{};
};

class CaseStudyRunner {
 public:
  /// With `shared_runtime == nullptr` (every pre-service caller) the
  /// runner owns a private EnsembleRunner built from options.runtime.
  /// A non-null `shared_runtime` is BORROWED: several case studies — the
  /// ct_service request sessions — then multiplex onto one work-stealing
  /// pool and one content-addressed result cache, which is what keeps the
  /// cache warm across requests. The borrowed runner must outlive this
  /// object, and options.runtime is ignored in that mode (execution knobs
  /// belong to the runner's owner).
  CaseStudyRunner(scada::ScadaTopology topology,
                  std::shared_ptr<const terrain::Terrain> terrain,
                  CaseStudyOptions options = {},
                  runtime::EnsembleRunner* shared_runtime = nullptr);

  /// The realization batch for `site_ids` (generated on first use and
  /// kept, one per site set), for consumers that read realizations
  /// themselves rather than classify them (downtime's restoration fold):
  /// generated by the engine scoped to those sites, so each realization
  /// holds impacts for them only, bit-identical to the full batch's. No
  /// sites names the full engine's batch, for the consumers that read every
  /// asset or arbitrary ids (the flood probabilities below). Contains the
  /// SURVIVORS when generation quarantined realizations — see
  /// generation_failures() for the ledger.
  const std::vector<surge::HurricaneRealization>& realizations(
      const std::vector<std::string>& site_ids = {});

  /// Quarantine ledger of the batch for `site_ids` (empty until that batch
  /// has been generated, and on every clean run).
  const runtime::FailureLedger& generation_failures(
      const std::vector<std::string>& site_ids = {});

  /// The one classifying entry point: the (configurations x scenarios)
  /// cell matrix in one crash-consistent sweep. Every realization is
  /// generated once, by an engine scoped to the sites the configurations
  /// place (see scoped_engine), and classified into every cell the result
  /// cache cannot serve. With a `ckpt` dir, completed slices are journaled
  /// so a killed or interrupted run resumes from where it stopped
  /// (bit-identical to an uninterrupted run); `interrupt` stops it at a
  /// slice boundary. Results come back in row-major order (config varies
  /// fastest within a scenario; see ResumableAnalysis::row). See
  /// AnalysisPipeline::analyze_resumable and runtime/checkpoint.h.
  ResumableAnalysis run(const std::vector<scada::Configuration>& configs,
                        const std::vector<threat::ThreatScenario>& scenarios,
                        const runtime::CheckpointOptions& ckpt = {},
                        runtime::CancellationToken* interrupt = nullptr);

  /// Empirical probability that the asset flooded across realizations.
  double asset_flood_probability(std::string_view asset_id);

  /// P(asset `a` flooded | asset `b` flooded); 0 when `b` never floods.
  double conditional_flood_probability(std::string_view a, std::string_view b);

  const scada::ScadaTopology& topology() const noexcept { return topology_; }
  const surge::RealizationEngine& engine() const noexcept { return engine_; }
  const CaseStudyOptions& options() const noexcept { return options_; }
  /// The shared execution runtime (pool + result cache) every analysis of
  /// this case study routes through.
  runtime::EnsembleRunner& runtime() noexcept { return *runtime_; }
  /// True when the runtime is borrowed from an external owner (service
  /// mode) rather than owned by this runner.
  bool shares_runtime() const noexcept { return owned_runtime_ == nullptr; }

 private:
  /// Content address of the (engine, realization count) ensemble; computed
  /// once, so every run() keys the result cache identically whatever its
  /// site scope, and warm runs hit it without regenerating.
  /// Safe even under quarantine: a degraded run is never stored, so the
  /// full-ensemble address can only ever resolve to full-ensemble results.
  const std::string& batch_digest();
  /// One site scope: its engine and its guarded batch, each derived on
  /// first use. The full scope (the empty key) uses engine_.
  struct Scope {
    std::optional<surge::RealizationEngine> engine;
    runtime::GeneratedBatch batch;
    bool generated = false;
  };
  /// The scope of a site list (sorted and deduplicated into its key).
  Scope& scope(const std::vector<std::string>& site_ids);
  /// engine().scoped(site_ids), derived on first use per site set and
  /// kept: neither construction nor a cache hit ever derives it. No sites
  /// names engine() itself.
  const surge::RealizationEngine& scoped_engine(
      const std::vector<std::string>& site_ids);
  /// The guarded batch for `site_ids` (generated on first use).
  const runtime::GeneratedBatch& generated(
      const std::vector<std::string>& site_ids);

  scada::ScadaTopology topology_;
  CaseStudyOptions options_;
  surge::RealizationEngine engine_;
  /// Site scopes by sorted site set (map nodes keep references stable).
  std::map<std::vector<std::string>, Scope> scopes_;
  AnalysisPipeline pipeline_;
  /// Null when borrowing; runtime_ then points at the external runner.
  std::unique_ptr<runtime::EnsembleRunner> owned_runtime_;
  runtime::EnsembleRunner* runtime_;
  std::string batch_digest_;
};

/// The sorted, deduplicated asset ids of every site the configurations
/// place: the only assets their classification reads.
std::vector<std::string> site_union(
    std::span<const scada::Configuration> configs);

/// Builds the paper's Oahu case study: synthetic Oahu terrain + the Fig. 4
/// topology.
CaseStudyRunner make_oahu_case_study(CaseStudyOptions options = {});

}  // namespace ct::core
