// The framework beyond Oahu: defines a fictional island region and SCADA
// topology from scratch and runs the same compound-threat analysis,
// demonstrating that nothing in the pipeline is hard-wired to the paper's
// case study — a practitioner supplies terrain, assets, a storm climate,
// and siting candidates.
//
// Usage: custom_region [realizations]
#include <cstdlib>
#include <iostream>
#include <memory>

#include "core/case_study.h"
#include "core/report.h"
#include "core/siting.h"
#include "scada/asset.h"
#include "scada/configuration.h"
#include "terrain/terrain.h"
#include "threat/scenario.h"
#include "util/strings.h"

using namespace ct;

namespace {

/// "Isla Verde": a fictional elongated island with one mountain spine,
/// a low eastern port city and a high western plateau town.
std::unique_ptr<terrain::SyntheticIslandTerrain> make_isla_verde() {
  terrain::IslandParams p;
  p.name = "Isla Verde (fictional)";
  p.coastline = {
      {10.00, -60.00}, {10.02, -59.85}, {10.10, -59.70}, {10.25, -59.62},
      {10.40, -59.68}, {10.47, -59.85}, {10.45, -60.05}, {10.35, -60.18},
      {10.18, -60.15}, {10.05, -60.10},
  };
  p.projection_reference = {10.25, -59.9};
  p.ridges = {{{10.15, -60.05}, {10.38, -59.80}, 900.0, 5000.0}};
  p.shore_elevation_m = 0.8;
  p.plain_slope = 0.005;
  return std::make_unique<terrain::SyntheticIslandTerrain>(p);
}

scada::ScadaTopology make_topology() {
  scada::ScadaTopology topo;
  topo.add({"port_cc", "Port City Control Center",
            scada::AssetType::kControlCenter, {10.24, -59.64}, 1.0});
  topo.add({"plateau_cc", "Plateau Control Center",
            scada::AssetType::kControlCenter, {10.27, -59.95}, 40.0});
  topo.add({"bay_dc", "Bay Data Center", scada::AssetType::kDataCenter,
            {10.06, -60.05}, 2.5});
  topo.add({"port_pp", "Port Power Plant", scada::AssetType::kPowerPlant,
            {10.23, -59.65}, 1.2});
  topo.add({"north_ss", "North Substation", scada::AssetType::kSubstation,
            {10.44, -59.90}, 4.0});
  return topo;
}

}  // namespace

int main(int argc, char** argv) {
  core::CaseStudyOptions options;
  options.realizations = 400;
  if (argc > 1) options.realizations = std::strtoul(argv[1], nullptr, 10);

  // Storm climate for this region: CAT-2 storms approaching from the
  // south-east, aimed at the island's eastern (port) side.
  options.realization.ensemble.base_aim = {10.05, -59.70};
  options.realization.ensemble.base_heading_deg = 315.0;

  core::CaseStudyRunner runner(make_topology(), make_isla_verde(), options);

  std::cout << "Compound-threat analysis of a user-defined region ("
            << options.realizations << " realizations)\n\n"
            << "asset flood probabilities:\n";
  for (const char* id : {"port_cc", "plateau_cc", "bay_dc", "port_pp"}) {
    std::cout << "  " << id << ": "
              << util::format_percent(runner.asset_flood_probability(id), 1)
              << "\n";
  }

  const auto configs =
      scada::paper_configurations("port_cc", "plateau_cc", "bay_dc");
  const auto all = threat::all_scenarios();
  const std::vector<threat::ThreatScenario> scenarios(all.begin(), all.end());
  const core::ResumableAnalysis analysis = runner.run(configs, scenarios);
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    std::cout << "\n=== " << threat::scenario_name(scenarios[s]) << " ===\n";
    core::profile_table(analysis.row(s, configs.size())).render(std::cout);
  }

  // Siting question for this island: where should the backup go?
  core::SitingOptimizer optimizer(runner);
  const core::SitingRanking ranking = optimizer.rank_backup_sites(
      "port_cc", {"plateau_cc", "bay_dc", "north_ss"},
      {threat::ThreatScenario::kHurricane});
  std::cout << "\nbest \"6-6\" backup sites for the port-city primary:\n";
  for (const auto& s : ranking.by_scenario[0]) {
    std::cout << "  " << s.chosen[0] << ": green "
              << util::format_percent(s.green_probability, 1)
              << ", E[badness] " << util::format_fixed(s.expected_badness, 3)
              << "\n";
  }
  return 0;
}
