// ChaosRunner tests: a seeded benign sweep must keep every run's Table-I
// color equal to the analytic evaluator's with zero invariant violations,
// and an injected f+1 compromise must be detected and shrunk to a minimal
// replayable reproducer.
#include <gtest/gtest.h>

#include "core/chaos.h"
#include "core/evaluator.h"
#include "runtime/ensemble_runner.h"
#include "scada/configuration.h"
#include "sim/fault_injector.h"
#include "threat/scenario.h"
#include "threat/system_state.h"

namespace ct::core {
namespace {

using threat::OperationalState;
using threat::ThreatScenario;

ChaosOptions small_sweep_options() {
  ChaosOptions options;
  options.plans = 5;  // the ≥50-plan acceptance sweep lives in bench_chaos
  return options;
}

/// Sweeps on an inline (jobs=1) runtime: plans run in order on this thread.
ChaosReport serial_sweep(const ChaosRunner& runner,
                         const scada::Configuration& config) {
  runtime::EnsembleOptions options;
  options.jobs = 1;
  runtime::EnsembleRunner runtime(options);
  return runner.sweep(config, runtime);
}

TEST(Chaos, BenignSweepIsCleanOnPrimaryBackup) {
  const ChaosRunner runner(small_sweep_options());
  const ChaosReport report =
      serial_sweep(runner, scada::make_config_2_2("p", "b"));
  EXPECT_EQ(report.plans_run, 5);
  EXPECT_EQ(report.runs, 5 * 4);  // plans x scenarios
  EXPECT_TRUE(report.ok()) << report.findings.size() << " finding(s), first: "
                           << report.findings.front().replay_schedule;
  // The plans actually impaired the WAN — this was not a vacuous pass.
  EXPECT_GT(report.total_duplicates, 0u);
}

TEST(Chaos, BenignSweepIsCleanOnBft) {
  const ChaosRunner runner(small_sweep_options());
  const ChaosReport report = serial_sweep(runner, scada::make_config_6("p"));
  EXPECT_TRUE(report.ok()) << report.findings.size() << " finding(s), first: "
                           << report.findings.front().replay_schedule;
  EXPECT_EQ(report.runs, 5 * 4);
}

TEST(Chaos, RestartHeavySweepIsCleanAndExercisesRejoins) {
  ChaosOptions options = small_sweep_options();
  options.plan_style = ChaosOptions::PlanStyle::kRestartHeavy;
  const ChaosRunner runner(options);
  const ChaosReport report = serial_sweep(runner, scada::make_config_6("p"));
  EXPECT_TRUE(report.ok()) << report.findings.size() << " finding(s), first: "
                           << report.findings.front().replay_schedule;
  EXPECT_EQ(report.runs, 5 * 4);
  // Restart-heavy plans must actually drive the catch-up machinery.
  EXPECT_GT(report.total_rejoins, 0);
}

TEST(Chaos, RestartHeavySweepIsCleanOnPrimaryBackup) {
  ChaosOptions options = small_sweep_options();
  options.plan_style = ChaosOptions::PlanStyle::kRestartHeavy;
  const ChaosRunner runner(options);
  const ChaosReport report =
      serial_sweep(runner, scada::make_config_2_2("p", "b"));
  EXPECT_TRUE(report.ok()) << report.findings.size() << " finding(s), first: "
                           << report.findings.front().replay_schedule;
}

class CompromiseProbe
    : public ::testing::TestWithParam<scada::Configuration> {};

TEST_P(CompromiseProbe, DetectsAndShrinksToMinimalPlan) {
  const scada::Configuration config = GetParam();
  const ChaosRunner runner(small_sweep_options());
  const ChaosFinding finding = runner.compromise_probe(config);

  // Detection: a clean system is green analytically, but f+1 compromised
  // replicas forge a quorum and the DES observes the compromise.
  EXPECT_EQ(finding.expected, OperationalState::kGreen);
  EXPECT_EQ(finding.observed, OperationalState::kGray);

  // Shrinking strips the decoy crash and every redundant event, leaving
  // exactly the f+1 compromises that cause the violation.
  const int threshold = config.safety_threshold();
  ASSERT_EQ(finding.minimal_plan.events.size(),
            static_cast<std::size_t>(threshold));
  for (const sim::FaultEvent& e : finding.minimal_plan.events) {
    EXPECT_EQ(e.kind, sim::FaultKind::kCompromise);
  }

  // The printed schedule replays to the same minimal plan.
  EXPECT_EQ(sim::FaultPlan::parse_schedule(finding.replay_schedule),
            finding.minimal_plan);
}

INSTANTIATE_TEST_SUITE_P(
    PaperConfigurations, CompromiseProbe,
    ::testing::Values(scada::make_config_2("p"), scada::make_config_6("p")),
    [](const ::testing::TestParamInfo<scada::Configuration>& info) {
      return info.param.name == "2" ? "c2" : "c6";
    });

TEST(Chaos, ShrinkKeepsOnlyLoadBearingEvents) {
  const scada::Configuration config = scada::make_config_2("p");
  const ChaosRunner runner(small_sweep_options());

  threat::SystemState clean;
  clean.site_status.assign(config.sites.size(), threat::SiteStatus::kUp);
  clean.intrusions.assign(config.sites.size(), 0);
  const OperationalState expected = evaluate(config, clean);

  sim::FaultPlan plan;
  plan.duplicate_probability = 0.05;
  plan.events.push_back(
      {sim::FaultKind::kCompromise, 120.0, 0.0, {0, 0}, 0, 0, 1.0});
  plan.events.push_back(
      {sim::FaultKind::kSkew, 30.0, 20.0, {0, 1}, 0, 0, 1.2});
  plan.events.push_back(
      {sim::FaultKind::kCrash, 40.0, 5.0, {0, 1}, 0, 0, 1.0});

  const sim::FaultPlan minimal =
      runner.shrink(config, clean, expected, plan);
  ASSERT_EQ(minimal.events.size(), 1u);
  EXPECT_EQ(minimal.events[0].kind, sim::FaultKind::kCompromise);
  EXPECT_EQ(minimal.duplicate_probability, 0.0);
  EXPECT_EQ(minimal.reorder_probability, 0.0);
}

}  // namespace
}  // namespace ct::core
