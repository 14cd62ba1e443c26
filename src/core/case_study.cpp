#include "core/case_study.h"

#include <algorithm>

#include "scada/oahu.h"
#include "terrain/oahu.h"

namespace ct::core {

CaseStudyRunner::CaseStudyRunner(scada::ScadaTopology topology,
                                 std::shared_ptr<const terrain::Terrain> terrain,
                                 CaseStudyOptions options,
                                 runtime::EnsembleRunner* shared_runtime)
    : topology_(std::move(topology)), options_(options),
      engine_(std::move(terrain), topology_.exposed_assets(),
              options_.realization),
      pipeline_(options_.attacker),
      owned_runtime_(shared_runtime == nullptr
                         ? std::make_unique<runtime::EnsembleRunner>(
                               options_.runtime)
                         : nullptr),
      runtime_(shared_runtime == nullptr ? owned_runtime_.get()
                                         : shared_runtime) {}

CaseStudyRunner::Scope& CaseStudyRunner::scope(
    const std::vector<std::string>& site_ids) {
  std::vector<std::string> key = site_ids;
  std::sort(key.begin(), key.end());
  key.erase(std::unique(key.begin(), key.end()), key.end());
  return scopes_[std::move(key)];
}

const surge::RealizationEngine& CaseStudyRunner::scoped_engine(
    const std::vector<std::string>& site_ids) {
  if (site_ids.empty()) return engine_;
  Scope& s = scope(site_ids);
  if (!s.engine) s.engine.emplace(engine_.scoped(site_ids));
  return *s.engine;
}

const runtime::GeneratedBatch& CaseStudyRunner::generated(
    const std::vector<std::string>& site_ids) {
  Scope& s = scope(site_ids);
  if (!s.generated) {
    s.batch = runtime_->generate_guarded(scoped_engine(site_ids),
                                         options_.realizations);
    s.generated = true;
  }
  return s.batch;
}

const std::vector<surge::HurricaneRealization>& CaseStudyRunner::realizations(
    const std::vector<std::string>& site_ids) {
  return generated(site_ids).realizations;
}

const runtime::FailureLedger& CaseStudyRunner::generation_failures(
    const std::vector<std::string>& site_ids) {
  return scope(site_ids).batch.ledger;
}

const std::string& CaseStudyRunner::batch_digest() {
  if (batch_digest_.empty()) {
    batch_digest_ = runtime::EnsembleRunner::digest_engine_batch(
        engine_, options_.realizations);
  }
  return batch_digest_;
}

ResumableAnalysis CaseStudyRunner::run(
    const std::vector<scada::Configuration>& configs,
    const std::vector<threat::ThreatScenario>& scenarios,
    const runtime::CheckpointOptions& ckpt,
    runtime::CancellationToken* interrupt) {
  std::vector<SweepCell> cells;
  cells.reserve(configs.size() * scenarios.size());
  for (const threat::ThreatScenario scenario : scenarios) {
    for (const scada::Configuration& config : configs) {
      cells.push_back(SweepCell{&config, scenario});
    }
  }
  // A cell reads only asset_failed of its configuration's sites, so the
  // sweep generates from an engine scoped to their union. The ensemble is
  // the same, so the keys stay the full engine's batch digest.
  const std::vector<std::string> sites = site_union(configs);
  return pipeline_.analyze_resumable(
      cells,
      [this, &sites]() -> const surge::RealizationEngine& {
        return scoped_engine(sites);
      },
      options_.realizations, *runtime_, batch_digest(), ckpt, interrupt);
}

double CaseStudyRunner::asset_flood_probability(std::string_view asset_id) {
  const auto& batch = realizations();
  if (batch.empty()) return 0.0;
  std::size_t failures = 0;
  const std::string id(asset_id);
  for (const surge::HurricaneRealization& r : batch) {
    if (r.asset_failed(id)) ++failures;
  }
  return static_cast<double>(failures) / static_cast<double>(batch.size());
}

double CaseStudyRunner::conditional_flood_probability(std::string_view a,
                                                      std::string_view b) {
  const auto& batch = realizations();
  const std::string id_a(a);
  const std::string id_b(b);
  std::size_t b_failures = 0;
  std::size_t joint = 0;
  for (const surge::HurricaneRealization& r : batch) {
    if (r.asset_failed(id_b)) {
      ++b_failures;
      if (r.asset_failed(id_a)) ++joint;
    }
  }
  if (b_failures == 0) return 0.0;
  return static_cast<double>(joint) / static_cast<double>(b_failures);
}

std::vector<std::string> site_union(
    std::span<const scada::Configuration> configs) {
  std::vector<std::string> sites;
  for (const scada::Configuration& config : configs) {
    for (const scada::ControlSite& site : config.sites) {
      sites.push_back(site.asset_id);
    }
  }
  std::sort(sites.begin(), sites.end());
  sites.erase(std::unique(sites.begin(), sites.end()), sites.end());
  return sites;
}

CaseStudyRunner make_oahu_case_study(CaseStudyOptions options) {
  return CaseStudyRunner(scada::oahu_topology(), terrain::make_oahu_terrain(),
                         options);
}

}  // namespace ct::core
