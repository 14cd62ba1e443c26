// Ablation A4: discrete-event protocol simulation vs the analytic Table-I
// classifier, with per-configuration event/message costs. This is the
// evidence that the paper's state classification rules follow from
// protocol behaviour rather than being assumed.
//
// The table reports the pooled engine's ms/run, and the totals are merged
// into BENCH_des.json as the "bench_des" record. The outcomes of this
// corpus are pinned as golden digests in des_fastpath_test (cells a4/*).
#include <chrono>
#include <iostream>

#include "core/chaos.h"
#include "core/evaluator.h"
#include "figure_bench.h"
#include "scada/configuration.h"
#include "sim/scada_des.h"
#include "threat/attacker.h"
#include "threat/scenario.h"
#include "util/strings.h"
#include "util/table.h"

using namespace ct;

int main() {
  std::cout << "=== A4: protocol simulation vs analytic classifier ===\n\n";

  const sim::DesOptions options = core::a4_des_options();

  util::TextTable table;
  table.set_columns({"config", "runs", "agreements", "events/run",
                     "messages/run", "ms/run"},
                    {util::Align::kLeft, util::Align::kRight,
                     util::Align::kRight, util::Align::kRight,
                     util::Align::kRight, util::Align::kRight});

  bench::DesBenchRecord record;
  record.name = "bench_des";
  bool all_agree = true;

  const threat::GreedyWorstCaseAttacker attacker;
  sim::DesArena arena;
  for (const auto& config :
       scada::paper_configurations("primary", "backup", "dc")) {
    const sim::ScadaDes des(config, options);
    const std::size_t n = config.sites.size();
    std::size_t runs = 0;
    std::size_t agreements = 0;
    std::uint64_t events = 0;
    std::uint64_t messages = 0;
    double run_ms = 0.0;
    for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
      threat::SystemState base;
      base.intrusions.assign(n, 0);
      for (std::size_t i = 0; i < n; ++i) {
        base.site_status.push_back((mask >> i) & 1
                                       ? threat::SiteStatus::kFlooded
                                       : threat::SiteStatus::kUp);
      }
      for (const threat::ThreatScenario scenario : threat::all_scenarios()) {
        const threat::SystemState attacked =
            attacker.attack(config, base, threat::capability_for(scenario));
        const auto start = std::chrono::steady_clock::now();
        const sim::DesOutcome outcome = des.run(attacked, arena);
        run_ms += std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
        ++runs;
        events += outcome.events;
        messages += outcome.messages;
        if (outcome.observed == core::evaluate(config, attacked)) {
          ++agreements;
        }
      }
    }
    record.runs += runs;
    record.events += events;
    record.fast_s += run_ms / 1000.0;
    all_agree = all_agree && agreements == runs;
    table.add_row({config.name, std::to_string(runs),
                   std::to_string(agreements),
                   std::to_string(events / runs),
                   std::to_string(messages / runs),
                   util::format_fixed(run_ms / static_cast<double>(runs), 1)});
  }
  table.render(std::cout);
  bench::write_des_bench_record(record);
  std::cout << "\nexpected: agreements == runs for every configuration.\n"
            << "corpus: " << record.runs << " runs, pooled "
            << util::format_fixed(record.fast_s, 2) << " s ("
            << util::format_fixed(record.fast_events_per_s() / 1e6, 2)
            << " M ev/s); recorded in BENCH_des.json\n";
  return all_agree ? 0 : 1;
}
