// Siting optimizer: answers the paper's §VII open question — "How should
// we choose additional control site locations to maximize availability
// when increasing redundancy for compound threat scenarios?" — by
// exhaustively scoring candidate site assignments against the realization
// set.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/case_study.h"
#include "core/pipeline.h"

namespace ct::core {

/// Score of one candidate site assignment under one scenario.
struct SitingScore {
  /// Site ids filling the open slots, in the order the builder consumed
  /// them.
  std::vector<std::string> chosen;
  scada::Configuration config;
  double green_probability = 0.0;
  double orange_probability = 0.0;
  double red_probability = 0.0;
  double gray_probability = 0.0;
  /// Expected badness (0 green .. 3 gray); the ranking key (lower wins).
  double expected_badness = 0.0;
};

/// Output of one rank call: a best-first ranking per scenario, plus the
/// one sweep that scored every candidate under every scenario.
struct SitingRanking {
  /// by_scenario[s] ranks every candidate under the call's scenarios[s].
  std::vector<std::vector<SitingScore>> by_scenario;
  /// The sweep's per-cell results (quarantine accounting; interrupted
  /// when the rankings cover only the realizations done before a cancel).
  ResumableAnalysis sweep;
};

/// Builds a configuration from a choice of site ids (e.g. chosen = {backup}
/// for "6-6", or {second control center, data center} for "6+6+6").
using ConfigBuilder =
    std::function<scada::Configuration(const std::vector<std::string>&)>;

class SitingOptimizer {
 public:
  /// The runner must outlive the optimizer. A rank call builds every
  /// candidate first, then scores candidates x scenarios in one
  /// CaseStudyRunner::run: the ensemble is generated once per call, by an
  /// engine scoped to the union of the candidates' sites, and cells an
  /// earlier rank or run already scored are served from the
  /// content-addressed result cache.
  explicit SitingOptimizer(CaseStudyRunner& runner) : runner_(runner) {}

  /// Scores every `slots`-combination of `candidates` (no repetition,
  /// order-insensitive) under each scenario and ranks them best-first
  /// (lowest expected badness; green probability breaks ties).
  /// `interrupt` stops the sweep at a slice boundary.
  SitingRanking rank(const ConfigBuilder& builder,
                     const std::vector<std::string>& candidates, int slots,
                     const std::vector<threat::ThreatScenario>& scenarios,
                     runtime::CancellationToken* interrupt = nullptr);

  /// Convenience: ranks backup-site choices for a "6-6" architecture with
  /// the given fixed primary.
  SitingRanking rank_backup_sites(
      const std::string& primary, const std::vector<std::string>& candidates,
      const std::vector<threat::ThreatScenario>& scenarios,
      runtime::CancellationToken* interrupt = nullptr);

  /// Convenience: ranks (second control center, data center) pairs for a
  /// "6+6+6" architecture with the given fixed primary.
  SitingRanking rank_site_pairs(
      const std::string& primary, const std::vector<std::string>& candidates,
      const std::vector<threat::ThreatScenario>& scenarios);

 private:
  CaseStudyRunner& runner_;
};

}  // namespace ct::core
