// Chaos acceptance sweep: seeded fault plans per paper configuration
// (default 50, overridable via argv for CI smoke runs), each run under
// every threat scenario, asserting that the DES-observed Table-I color
// stays equal to the analytic evaluator's and that the protocol invariant
// monitor stays silent. Two sweeps run per configuration: benign plans
// (crash/flap/skew/duplication/reordering) and restart-heavy plans
// (back-to-back crash/restart windows plus recovery-plane message loss,
// exercising the checkpoint / state-transfer / rejoin machinery). Also
// runs the f+1 compromise detection probe and prints the shrunk minimal
// reproducer for any finding.
#include <chrono>
#include <cstdlib>
#include <iostream>

#include "core/chaos.h"
#include "runtime/ensemble_runner.h"
#include "scada/configuration.h"
#include "threat/scenario.h"
#include "util/strings.h"
#include "util/table.h"

using namespace ct;

namespace {

int run_sweep(const core::ChaosRunner& runner, const char* title) {
  std::cout << "=== chaos sweep: " << title << " ===\n\n";
  runtime::EnsembleOptions options;
  options.jobs = 1;  // plans in order on this thread: per-config wall times
  runtime::EnsembleRunner runtime(options);
  util::TextTable table;
  table.set_columns(
      {"config", "plans", "runs", "drops", "duplicates", "rejoins",
       "findings", "ms"},
      {util::Align::kLeft, util::Align::kRight, util::Align::kRight,
       util::Align::kRight, util::Align::kRight, util::Align::kRight,
       util::Align::kRight, util::Align::kRight});

  int findings = 0;
  for (const auto& config :
       scada::paper_configurations("primary", "backup", "dc")) {
    const auto start = std::chrono::steady_clock::now();
    const core::ChaosReport report = runner.sweep(config, runtime);
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    table.add_row({report.config_name, std::to_string(report.plans_run),
                   std::to_string(report.runs),
                   std::to_string(report.total_drops),
                   std::to_string(report.total_duplicates),
                   std::to_string(report.total_rejoins),
                   std::to_string(report.findings.size()),
                   std::to_string(elapsed.count())});
    findings += static_cast<int>(report.findings.size());
    for (const core::ChaosFinding& finding : report.findings) {
      std::cout << "FINDING " << finding.config_name << " seed "
                << finding.plan_seed << " scenario "
                << threat::scenario_name(finding.scenario) << ": expected "
                << threat::state_name(finding.expected) << ", observed "
                << threat::state_name(finding.observed) << "\n";
      for (const std::string& v : finding.violations) {
        std::cout << "  violation: " << v << "\n";
      }
      std::cout << "  minimal reproducer:\n" << finding.replay_schedule;
    }
  }
  std::cout << table.to_string() << "\n";
  return findings;
}

}  // namespace

int main(int argc, char** argv) {
  const int plans = argc > 1 ? std::atoi(argv[1]) : 50;
  if (plans <= 0) {
    std::cerr << "usage: bench_chaos [plans-per-config]\n";
    return 2;
  }

  int total_findings = 0;

  core::ChaosOptions benign;
  benign.plans = plans;
  total_findings +=
      run_sweep(core::ChaosRunner(benign), "benign fault plans vs Table I");

  core::ChaosOptions restart_heavy;
  restart_heavy.plans = plans;
  restart_heavy.plan_style = core::ChaosOptions::PlanStyle::kRestartHeavy;
  total_findings += run_sweep(core::ChaosRunner(restart_heavy),
                              "restart-heavy plans with transfer loss");

  std::cout << "=== detection probe: f+1 compromised replicas ===\n\n";
  const core::ChaosRunner runner(benign);
  for (const auto& config :
       scada::paper_configurations("primary", "backup", "dc")) {
    const core::ChaosFinding finding = runner.compromise_probe(config);
    const bool detected = finding.observed != finding.expected;
    std::cout << "config " << config.name << ": "
              << (detected ? "DETECTED" : "MISSED") << " (expected "
              << threat::state_name(finding.expected) << ", observed "
              << threat::state_name(finding.observed) << "), minimal plan "
              << finding.minimal_plan.events.size() << " event(s):\n";
    std::cout << finding.replay_schedule << "\n";
    if (!detected) ++total_findings;
  }

  if (total_findings > 0) {
    std::cout << "chaos sweep FAILED: " << total_findings << " finding(s)\n";
    return 1;
  }
  std::cout << "chaos sweep clean: colors stable, invariants silent\n";
  return 0;
}
