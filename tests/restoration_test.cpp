// Tests for the restoration/downtime model that quantifies the paper's
// orange / red / gray state semantics.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/case_study.h"
#include "core/restoration.h"
#include "scada/configuration.h"
#include "scada/oahu.h"
#include "util/stats.h"

namespace ct::core {
namespace {

using threat::SiteStatus;
using threat::SystemState;

SystemState state_of(std::vector<SiteStatus> status,
                     std::vector<int> intrusions) {
  SystemState s;
  s.site_status = std::move(status);
  s.intrusions = std::move(intrusions);
  return s;
}

const RestorationModel kModel{};  // defaults

runtime::EnsembleOptions with_jobs(unsigned jobs) {
  runtime::EnsembleOptions options;
  options.jobs = jobs;
  return options;
}

/// A strictly serial runner: the fold order is the realization order.
runtime::EnsembleRunner& serial_runner() {
  static runtime::EnsembleRunner runner(with_jobs(1));
  return runner;
}

TEST(Restoration, GreenCostsNothing) {
  const auto config = scada::make_config_2("p");
  const IncidentCosts costs = expected_incident_costs(
      config, state_of({SiteStatus::kUp}, {0}), kModel);
  EXPECT_DOUBLE_EQ(costs.downtime_hours, 0.0);
  EXPECT_DOUBLE_EQ(costs.incorrect_hours, 0.0);
}

TEST(Restoration, OrangeCostsActivationTime) {
  const auto config = scada::make_config_2_2("p", "b");
  const IncidentCosts costs = expected_incident_costs(
      config, state_of({SiteStatus::kFlooded, SiteStatus::kUp}, {0, 0}),
      kModel);
  EXPECT_NEAR(costs.downtime_hours, kModel.activation_minutes / 60.0, 1e-12);
  EXPECT_DOUBLE_EQ(costs.incorrect_hours, 0.0);
}

TEST(Restoration, RedFromIsolationEndsWithTheAttack) {
  const auto config = scada::make_config_2("p");
  const IncidentCosts costs = expected_incident_costs(
      config, state_of({SiteStatus::kIsolated}, {0}), kModel);
  EXPECT_NEAR(costs.downtime_hours, kModel.isolation_duration_hours, 1e-12);
}

TEST(Restoration, RedFromFloodingWaitsForRepair) {
  const auto config = scada::make_config_2("p");
  const IncidentCosts costs = expected_incident_costs(
      config, state_of({SiteStatus::kFlooded}, {0}), kModel);
  EXPECT_NEAR(costs.downtime_hours, kModel.flood_repair_hours, 1e-12);
}

TEST(Restoration, RedTakesTheFastestRestorationPath) {
  // "2-2" with the primary flooded AND the backup isolated: the isolation
  // ends long before the flood repair, so service resumes via the backup
  // (plus its activation delay).
  const auto config = scada::make_config_2_2("p", "b");
  const IncidentCosts costs = expected_incident_costs(
      config, state_of({SiteStatus::kFlooded, SiteStatus::kIsolated}, {0, 0}),
      kModel);
  EXPECT_NEAR(costs.downtime_hours,
              kModel.isolation_duration_hours + kModel.activation_minutes / 60.0,
              1e-12);
}

TEST(Restoration, MultisiteRedNeedsEnoughSitesBack) {
  // "6+6+6" with two sites flooded and one up: red until ONE flooded site
  // repairs (then 2 of 3 are up -> green, no activation delay).
  const auto config = scada::make_config_6_6_6("p", "b", "d");
  const IncidentCosts costs = expected_incident_costs(
      config,
      state_of({SiteStatus::kFlooded, SiteStatus::kFlooded, SiteStatus::kUp},
               {0, 0, 0}),
      kModel);
  EXPECT_NEAR(costs.downtime_hours, kModel.flood_repair_hours, 1e-12);
}

TEST(Restoration, GrayCostsDetectionPlusCleanup) {
  const auto config = scada::make_config_2("p");
  const IncidentCosts costs = expected_incident_costs(
      config, state_of({SiteStatus::kUp}, {1}), kModel);
  EXPECT_NEAR(costs.incorrect_hours, kModel.compromise_detection_hours, 1e-12);
  EXPECT_NEAR(costs.downtime_hours, kModel.compromise_cleanup_hours, 1e-12);
}

TEST(Restoration, SampledMeanApproachesAnalytic) {
  const auto config = scada::make_config_2("p");
  const SystemState red = state_of({SiteStatus::kFlooded}, {0});
  util::Rng rng(404);
  util::RunningStats downtime;
  for (int i = 0; i < 20000; ++i) {
    downtime.add(sample_incident_costs(config, red, kModel, rng).downtime_hours);
  }
  EXPECT_NEAR(downtime.mean(), kModel.flood_repair_hours,
              kModel.flood_repair_hours * 0.03);
}

TEST(Restoration, AnalyzeAggregatesOverRealizations) {
  const auto config = scada::make_config_2_2("hon", "waiau");
  std::vector<surge::HurricaneRealization> batch;
  const auto realization_with = [](std::vector<std::string> failed) {
    surge::HurricaneRealization r;
    for (std::string& id : failed) {
      surge::AssetImpact impact;
      impact.asset_id = std::move(id);
      impact.failed = true;
      r.impacts.push_back(std::move(impact));
    }
    return r;
  };
  for (int i = 0; i < 8; ++i) batch.push_back(realization_with({}));
  batch.push_back(realization_with({"hon"}));
  batch.push_back(realization_with({"hon", "waiau"}));

  const RestorationResult result = analyze_restoration(
      config, threat::ThreatScenario::kHurricane, batch, kModel,
      serial_runner(), /*samples_per_realization=*/0);
  // 8 green (0 h) + 1 orange (1/6 h) + 1 red (96 h) over 10 realizations.
  EXPECT_NEAR(result.expected_downtime_hours,
              (kModel.activation_minutes / 60.0 + kModel.flood_repair_hours) /
                  10.0,
              1e-9);
  EXPECT_DOUBLE_EQ(result.expected_incorrect_hours, 0.0);
  EXPECT_NEAR(result.p_any_downtime, 0.2, 1e-12);
  EXPECT_EQ(result.config_name, "2-2");
}

TEST(Restoration, IntrusionScenarioAccruesIncorrectHours) {
  const auto config = scada::make_config_2("hon");
  surge::HurricaneRealization clean;
  const RestorationResult result = analyze_restoration(
      config, threat::ThreatScenario::kHurricaneIntrusion, {clean}, kModel,
      serial_runner(), 0);
  EXPECT_NEAR(result.expected_incorrect_hours,
              kModel.compromise_detection_hours, 1e-9);
  EXPECT_NEAR(result.expected_downtime_hours, kModel.compromise_cleanup_hours,
              1e-9);
}

TEST(Restoration, IntrusionTolerantConfigAvoidsIncorrectHours) {
  const auto config = scada::make_config_6("hon");
  surge::HurricaneRealization clean;
  const RestorationResult result = analyze_restoration(
      config, threat::ThreatScenario::kHurricaneIntrusion, {clean}, kModel,
      serial_runner(), 0);
  EXPECT_DOUBLE_EQ(result.expected_incorrect_hours, 0.0);
  EXPECT_DOUBLE_EQ(result.expected_downtime_hours, 0.0);
}

/// The pooled fold is bit-identical at any jobs value, stochastic
/// percentile included: every field of every paper configuration under
/// every scenario, jobs 1 against jobs 8, with 8 repair-time draws per
/// realization.
TEST(Restoration, AllFieldsBitIdenticalAtJobs1And8WithSampling) {
  CaseStudyOptions options;
  options.realizations = 60;
  options.runtime.fault_spec = "none";
  CaseStudyRunner study = make_oahu_case_study(options);
  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  const auto& realizations = study.realizations(site_union(configs));
  runtime::EnsembleRunner wide(with_jobs(8));
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  double any_downtime = 0.0;
  for (const threat::ThreatScenario scenario : threat::all_scenarios()) {
    for (const scada::Configuration& config : configs) {
      const RestorationResult a = analyze_restoration(
          config, scenario, realizations, kModel, serial_runner(), 8);
      const RestorationResult b = analyze_restoration(
          config, scenario, realizations, kModel, wide, 8);
      const std::string at =
          config.name + " / " + std::string(threat::scenario_name(scenario));
      EXPECT_EQ(bits(a.expected_downtime_hours),
                bits(b.expected_downtime_hours)) << at;
      EXPECT_EQ(bits(a.expected_incorrect_hours),
                bits(b.expected_incorrect_hours)) << at;
      EXPECT_EQ(bits(a.p95_downtime_hours), bits(b.p95_downtime_hours)) << at;
      EXPECT_EQ(bits(a.p_any_downtime), bits(b.p_any_downtime)) << at;
      any_downtime += a.p_any_downtime;
    }
  }
  EXPECT_GT(any_downtime, 0.0) << "the ensemble must cost some downtime";
}

}  // namespace
}  // namespace ct::core
