// The paper's full case study (§VI): five SCADA architectures, four
// compound-threat scenarios, two siting variants — everything behind
// Figures 6 through 11 — with CSV export for downstream plotting.
//
// Usage: oahu_case_study [realizations] [output.csv]
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <vector>

#include "core/case_study.h"
#include "core/report.h"
#include "scada/oahu.h"
#include "threat/scenario.h"
#include "util/strings.h"

int main(int argc, char** argv) {
  using namespace ct;

  core::CaseStudyOptions options;
  options.realizations = 1000;
  if (argc > 1) options.realizations = std::strtoul(argv[1], nullptr, 10);
  const std::string csv_path = argc > 2 ? argv[2] : "";

  std::cout << "Oahu compound-threat case study, " << options.realizations
            << " CAT-2 hurricane realizations\n\n";
  core::CaseStudyRunner runner = core::make_oahu_case_study(options);

  std::cout << "natural-disaster stage:\n"
            << "  P(Honolulu CC flooded) = "
            << util::format_percent(runner.asset_flood_probability(
                   scada::oahu_ids::kHonoluluCc))
            << " (paper: 9.5%)\n"
            << "  P(Waiau flooded | Honolulu flooded) = "
            << util::format_percent(runner.conditional_flood_probability(
                   scada::oahu_ids::kWaiauCc, scada::oahu_ids::kHonoluluCc))
            << " (paper: 100%)\n"
            << "  P(Kahe flooded) = "
            << util::format_percent(
                   runner.asset_flood_probability(scada::oahu_ids::kKaheCc))
            << " (paper: 0%)\n\n";

  std::ofstream csv_file;
  if (!csv_path.empty()) csv_file.open(csv_path);

  struct Figure {
    const char* id;
    threat::ThreatScenario scenario;
  };
  // One sweep per backup siting covers every figure drawn with it.
  struct Siting {
    const char* backup;
    std::vector<Figure> figures;
  };
  const Siting sitings[] = {
      {scada::oahu_ids::kWaiauCc,
       {{"fig6", threat::ThreatScenario::kHurricane},
        {"fig7", threat::ThreatScenario::kHurricaneIntrusion},
        {"fig8", threat::ThreatScenario::kHurricaneIsolation},
        {"fig9", threat::ThreatScenario::kHurricaneIntrusionIsolation}}},
      {scada::oahu_ids::kKaheCc,
       {{"fig10", threat::ThreatScenario::kHurricane},
        {"fig11", threat::ThreatScenario::kHurricaneIntrusion}}},
  };

  for (const Siting& siting : sitings) {
    const auto configs = scada::paper_configurations(
        scada::oahu_ids::kHonoluluCc, siting.backup,
        scada::oahu_ids::kDrFortress);
    std::vector<threat::ThreatScenario> scenarios;
    for (const Figure& figure : siting.figures) {
      scenarios.push_back(figure.scenario);
    }
    const core::ResumableAnalysis analysis = runner.run(configs, scenarios);

    for (std::size_t s = 0; s < siting.figures.size(); ++s) {
      const Figure& figure = siting.figures[s];
      const auto results = analysis.row(s, configs.size());
      std::cout << "--- " << figure.id << ": "
                << threat::scenario_name(figure.scenario) << " (backup: "
                << siting.backup << ") ---\n";
      core::profile_table(results).render(std::cout);
      const double delta =
          core::max_abs_delta(results, core::paper_expected(figure.id));
      std::cout << "max delta vs paper: "
                << util::format_fixed(delta * 100.0, 2) << " pp\n\n";

      if (csv_file.is_open()) {
        core::write_profiles_csv(csv_file, figure.id, results);
      }
    }
  }

  if (csv_file.is_open()) {
    std::cout << "profiles written to " << csv_path << "\n";
  }
  return 0;
}
