// Ablation A5: the paper's §VII open question — how should control-site
// locations be chosen to maximize availability under compound threats?
// Exhaustively ranks backup sites for "6-6" and (second CC, data center)
// pairs for "6+6+6" against the full realization ensemble.
#include <iostream>

#include "core/case_study.h"
#include "core/siting.h"
#include "figure_bench.h"
#include "scada/oahu.h"
#include "util/strings.h"
#include "util/table.h"

using namespace ct;

namespace {

void print_scores(const std::vector<core::SitingScore>& scores) {
  util::TextTable table;
  table.set_columns({"sites", "green", "orange", "red", "gray",
                     "E[badness]"},
                    {util::Align::kLeft, util::Align::kRight,
                     util::Align::kRight, util::Align::kRight,
                     util::Align::kRight, util::Align::kRight});
  for (const auto& s : scores) {
    table.add_row({util::join(s.chosen, " + "),
                   util::format_percent(s.green_probability, 1),
                   util::format_percent(s.orange_probability, 1),
                   util::format_percent(s.red_probability, 1),
                   util::format_percent(s.gray_probability, 1),
                   util::format_fixed(s.expected_badness, 3)});
  }
  table.render(std::cout);
}

}  // namespace

int main() {
  std::cout << "=== A5: control-site placement optimization (paper §VII) "
               "===\n\n";
  core::CaseStudyOptions options;
  options.realizations = bench::bench_realizations();
  core::CaseStudyRunner runner = core::make_oahu_case_study(options);
  core::SitingOptimizer optimizer(runner);
  const auto candidates = scada::oahu_control_site_candidates();

  // One sweep per ranking scores every candidate under both scenarios.
  const std::vector<threat::ThreatScenario> scenarios = {
      threat::ThreatScenario::kHurricane,
      threat::ThreatScenario::kHurricaneIntrusionIsolation};
  const core::SitingRanking backups = optimizer.rank_backup_sites(
      scada::oahu_ids::kHonoluluCc, candidates, scenarios);
  const core::SitingRanking pairs = optimizer.rank_site_pairs(
      scada::oahu_ids::kHonoluluCc, candidates, scenarios);
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    std::cout << "backup site for \"6-6\" under "
              << threat::scenario_name(scenarios[s]) << ":\n";
    print_scores(backups.by_scenario[s]);
    std::cout << "\n(second CC, data center) for \"6+6+6\" under "
              << threat::scenario_name(scenarios[s]) << ":\n";
    print_scores(pairs.by_scenario[s]);
    std::cout << "\n";
  }
  std::cout << "expected: Kahe dominates Waiau as backup (the paper's "
               "headline siting finding);\nany dry pair makes \"6+6+6\" "
               "fully green under the hurricane scenario.\n";
  return 0;
}
