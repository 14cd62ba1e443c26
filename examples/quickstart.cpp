// Quickstart: the whole framework in one page.
//
//   1. Build the Oahu case study (synthetic terrain + Fig. 4 topology).
//   2. Run hurricane realizations (default 1000; pass a count to override).
//   3. Analyze the five paper architectures under all four compound-threat
//      scenarios and print their operational profiles.
//
// Usage: quickstart [realizations]
#include <cstdlib>
#include <iostream>

#include "core/case_study.h"
#include "core/report.h"
#include "scada/oahu.h"
#include "scada/requirements.h"
#include "threat/scenario.h"

int main(int argc, char** argv) {
  using namespace ct;

  core::CaseStudyOptions options;
  if (argc > 1) options.realizations = std::strtoul(argv[1], nullptr, 10);

  std::cout << "Compound-threat analysis quickstart (Oahu, CAT-2 hurricane)\n"
            << "realizations: " << options.realizations << "\n\n";

  // Why the architectures look the way they do:
  std::cout << scada::explain_single_site(1, 1) << "\n"
            << scada::explain_active_multisite(3, 1, 1) << "\n\n";

  core::CaseStudyRunner runner = core::make_oahu_case_study(options);

  // Natural-disaster stage: who floods, how often?
  std::cout << "asset flood probabilities:\n";
  for (const char* id :
       {scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
        scada::oahu_ids::kKaheCc, scada::oahu_ids::kDrFortress,
        scada::oahu_ids::kAlohaNap}) {
    std::cout << "  " << id << ": "
              << runner.asset_flood_probability(id) * 100.0 << "%\n";
  }
  std::cout << "  P(waiau flooded | honolulu flooded) = "
            << runner.conditional_flood_probability(
                   scada::oahu_ids::kWaiauCc, scada::oahu_ids::kHonoluluCc) *
                   100.0
            << "%\n"
            << "  P(kahe flooded | honolulu flooded)  = "
            << runner.conditional_flood_probability(
                   scada::oahu_ids::kKaheCc, scada::oahu_ids::kHonoluluCc) *
                   100.0
            << "%\n\n";

  // Compound-threat stage: the paper's five architectures, four scenarios.
  const std::vector<scada::Configuration> configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);

  // One sweep classifies every (configuration, scenario) cell.
  const auto all = threat::all_scenarios();
  const std::vector<threat::ThreatScenario> scenarios(all.begin(), all.end());
  const core::ResumableAnalysis analysis = runner.run(configs, scenarios);
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    std::cout << "=== " << threat::scenario_name(scenarios[s]) << " ===\n";
    core::profile_table(analysis.row(s, configs.size())).render(std::cout);
    std::cout << "\n";
  }
  return 0;
}
