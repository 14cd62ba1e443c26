// Integration tests: the full case-study runner and siting optimizer on a
// reduced realization budget (statistical fidelity is covered by
// calibration_test and the bench binaries).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/case_study.h"
#include "core/report.h"
#include "core/siting.h"
#include "obs/metrics.h"
#include "scada/oahu.h"
#include "service/exec.h"

namespace ct::core {
namespace {

using threat::OperationalState;
using threat::ThreatScenario;

std::vector<ThreatScenario> every_scenario() {
  const auto all = threat::all_scenarios();
  return {all.begin(), all.end()};
}

class CaseStudyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CaseStudyOptions options;
    options.realizations = 150;
    runner_ = new CaseStudyRunner(make_oahu_case_study(options));
  }
  static void TearDownTestSuite() {
    delete runner_;
  }
  static CaseStudyRunner* runner_;
};

CaseStudyRunner* CaseStudyTest::runner_ = nullptr;

TEST_F(CaseStudyTest, RealizationsAreCachedAndStable) {
  const auto& first = runner_->realizations();
  EXPECT_EQ(first.size(), 150u);
  const auto& second = runner_->realizations();
  EXPECT_EQ(&first, &second);  // same cached vector
}

TEST_F(CaseStudyTest, ProbabilitiesSumToOneForEveryConfigAndScenario) {
  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  const ResumableAnalysis analysis = runner_->run(configs, every_scenario());
  ASSERT_EQ(analysis.results.size(), configs.size() * 4);
  for (const auto& result : analysis.results) {
    const double sum = result.outcomes.probability(OperationalState::kGreen) +
                       result.outcomes.probability(OperationalState::kOrange) +
                       result.outcomes.probability(OperationalState::kRed) +
                       result.outcomes.probability(OperationalState::kGray);
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_EQ(result.outcomes.total(), 150u);
  }
}

TEST_F(CaseStudyTest, QualitativeShapeOfThePaperHolds) {
  const auto configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
      scada::oahu_ids::kDrFortress);
  const ResumableAnalysis analysis = runner_->run(configs, every_scenario());

  // Hurricane only: every architecture is mostly green, never gray.
  for (const auto& r : analysis.row(0, configs.size())) {
    EXPECT_GT(r.outcomes.probability(OperationalState::kGreen), 0.7)
        << r.config_name;
    EXPECT_EQ(r.outcomes.probability(OperationalState::kGray), 0.0);
  }

  // Hurricane + intrusion: non-intrusion-tolerant architectures are mostly
  // gray; intrusion-tolerant ones keep their hurricane profile.
  const auto intrusion = analysis.row(1, configs.size());
  EXPECT_GT(intrusion[0].outcomes.probability(OperationalState::kGray), 0.7);
  EXPECT_GT(intrusion[1].outcomes.probability(OperationalState::kGray), 0.7);
  EXPECT_EQ(intrusion[2].outcomes.probability(OperationalState::kGray), 0.0);
  EXPECT_EQ(intrusion[4].outcomes.probability(OperationalState::kGray), 0.0);

  // Hurricane + isolation: single-site architectures are 100% red; only
  // "6+6+6" keeps green mass.
  const auto isolation = analysis.row(2, configs.size());
  EXPECT_DOUBLE_EQ(isolation[0].outcomes.probability(OperationalState::kRed),
                   1.0);
  EXPECT_DOUBLE_EQ(isolation[2].outcomes.probability(OperationalState::kRed),
                   1.0);
  EXPECT_GT(isolation[4].outcomes.probability(OperationalState::kGreen), 0.7);
  EXPECT_EQ(isolation[4].outcomes.probability(OperationalState::kOrange), 0.0);

  // Full compound threat: "6-6" is the minimum survivable configuration
  // (orange), "6+6+6" stays green.
  const auto full = analysis.row(3, configs.size());
  EXPECT_DOUBLE_EQ(full[2].outcomes.probability(OperationalState::kRed), 1.0);
  EXPECT_GT(full[3].outcomes.probability(OperationalState::kOrange), 0.7);
  EXPECT_GT(full[4].outcomes.probability(OperationalState::kGreen), 0.7);
}

TEST_F(CaseStudyTest, KaheSitingRemovesRedMass) {
  // The paper's §VII: with Kahe as backup, "2-2"/"6-6" convert red to
  // orange and "6+6+6" becomes fully green (Figs. 10-11).
  const auto kahe_configs = scada::paper_configurations(
      scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kKaheCc,
      scada::oahu_ids::kDrFortress);
  const auto results =
      runner_->run(kahe_configs, {ThreatScenario::kHurricane}).results;
  EXPECT_EQ(results[1].outcomes.probability(OperationalState::kRed), 0.0);
  EXPECT_EQ(results[3].outcomes.probability(OperationalState::kRed), 0.0);
  EXPECT_DOUBLE_EQ(results[4].outcomes.probability(OperationalState::kGreen),
                   1.0);
}

TEST_F(CaseStudyTest, FloodProbabilityHelpers) {
  const double hon =
      runner_->asset_flood_probability(scada::oahu_ids::kHonoluluCc);
  EXPECT_GT(hon, 0.0);
  EXPECT_LT(hon, 0.25);
  EXPECT_EQ(runner_->asset_flood_probability(scada::oahu_ids::kKaheCc), 0.0);
  // Conditional on a never-flooding asset is defined as 0.
  EXPECT_EQ(runner_->conditional_flood_probability(
                scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kKaheCc),
            0.0);
  EXPECT_GT(runner_->conditional_flood_probability(
                scada::oahu_ids::kWaiauCc, scada::oahu_ids::kHonoluluCc),
            0.8);
}

// ---------------------------------------------------------------- siting

TEST_F(CaseStudyTest, SitingRankCoversAllCombinations) {
  SitingOptimizer optimizer(*runner_);
  const auto scores =
      optimizer
          .rank_backup_sites(scada::oahu_ids::kHonoluluCc,
                             scada::oahu_control_site_candidates(),
                             {ThreatScenario::kHurricane})
          .by_scenario.at(0);
  EXPECT_EQ(scores.size(), 4u);  // 5 candidates minus the fixed primary
  for (std::size_t i = 1; i < scores.size(); ++i) {
    EXPECT_LE(scores[i - 1].expected_badness, scores[i].expected_badness);
  }
  for (const auto& s : scores) {
    EXPECT_NE(s.chosen.at(0), scada::oahu_ids::kHonoluluCc);
    EXPECT_NEAR(s.green_probability + s.orange_probability +
                    s.red_probability + s.gray_probability,
                1.0, 1e-9);
  }
}

TEST_F(CaseStudyTest, KaheIsTheBestBackupSite) {
  // The paper's headline siting finding.
  SitingOptimizer optimizer(*runner_);
  const auto scores =
      optimizer
          .rank_backup_sites(scada::oahu_ids::kHonoluluCc,
                             scada::oahu_control_site_candidates(),
                             {ThreatScenario::kHurricane})
          .by_scenario.at(0);
  ASSERT_FALSE(scores.empty());
  EXPECT_EQ(scores.front().chosen.at(0), scada::oahu_ids::kKaheCc);
}

TEST_F(CaseStudyTest, SitePairsRankedForTriple) {
  SitingOptimizer optimizer(*runner_);
  const auto scores =
      optimizer
          .rank_site_pairs(scada::oahu_ids::kHonoluluCc,
                           scada::oahu_control_site_candidates(),
                           {ThreatScenario::kHurricaneIntrusionIsolation})
          .by_scenario.at(0);
  EXPECT_EQ(scores.size(), 6u);  // C(4, 2)
  // Under the full compound threat no pair reaches 100% green (when the
  // Honolulu primary floods, the isolation attack takes a second site),
  // but dry-site pairs keep the hurricane profile and never go gray.
  EXPECT_GT(scores.front().green_probability, 0.8);
  EXPECT_EQ(scores.front().gray_probability, 0.0);
}

TEST_F(CaseStudyTest, SitingValidation) {
  SitingOptimizer optimizer(*runner_);
  EXPECT_THROW(optimizer.rank(nullptr, {"a"}, 1, {ThreatScenario::kHurricane}),
               std::invalid_argument);
  const ConfigBuilder builder = [](const std::vector<std::string>& chosen) {
    return scada::make_config_6_6("p", chosen.at(0));
  };
  EXPECT_THROW(optimizer.rank(builder, {"a"}, 2, {ThreatScenario::kHurricane}),
               std::invalid_argument);
  EXPECT_THROW(optimizer.rank(builder, {"a"}, 0, {ThreatScenario::kHurricane}),
               std::invalid_argument);
}

/// The once-per-request gate: a cold ranking over every scenario on a
/// fresh runner generates each realization exactly once, in one sweep
/// over candidates x scenarios. A rank that swept once per scenario would
/// run four times the slices.
TEST(SitingSweep, ColdRankingOverAllScenariosGeneratesEachRealizationOnce) {
  if (!obs::enabled()) GTEST_SKIP() << "metrics collection is off";
  constexpr std::size_t kRealizations = 200;  // two slices of 128
  const auto histogram_count = [](const char* name) {
    const obs::MetricsSnapshot snapshot = obs::capture_metrics();
    const obs::MetricValue* m = snapshot.find(name);
    return m != nullptr ? m->count : std::uint64_t{0};
  };
  CaseStudyOptions options;
  options.realizations = kRealizations;
  options.runtime.fault_spec = "none";
  CaseStudyRunner runner = make_oahu_case_study(options);
  const std::uint64_t slices_before = histogram_count("ensemble.slice_us");
  const std::uint64_t batches_before = histogram_count("ensemble.generate_us");

  SitingOptimizer optimizer(runner);
  const SitingRanking ranking = optimizer.rank_backup_sites(
      scada::oahu_ids::kHonoluluCc, scada::oahu_control_site_candidates(),
      every_scenario());

  ASSERT_EQ(ranking.by_scenario.size(), 4u);
  for (const std::vector<SitingScore>& scores : ranking.by_scenario) {
    EXPECT_EQ(scores.size(), 4u);
  }
  EXPECT_EQ(ranking.sweep.results.size(), 4u * 4u);
  EXPECT_EQ(ranking.sweep.cached_cells, 0u);
  EXPECT_EQ(ranking.sweep.executed, kRealizations);
  EXPECT_EQ(histogram_count("ensemble.slice_us") - slices_before, 2u);
  EXPECT_EQ(histogram_count("ensemble.generate_us") - batches_before, 0u)
      << "a ranking must not materialize a batch";
}

/// Siting and downtime honor a cancellation that arrives before they
/// start: exit code 5, and siting marks its tables partial as analyze does.
TEST(SitingSweep, SitingAndDowntimeExitFiveWhenCancelledBeforeTheyStart) {
  for (const service::RequestKind kind :
       {service::RequestKind::kSiting, service::RequestKind::kDowntime}) {
    service::Request request;
    request.kind = kind;
    request.realizations = 40;
    CaseStudyOptions defaults;
    defaults.runtime.fault_spec = "none";
    const auto runner = service::make_case_study(request, defaults, nullptr);
    runtime::CancellationToken interrupt;
    interrupt.request_cancel();
    const service::ExecOutcome out =
        service::execute_request(request, *runner, {}, &interrupt);
    EXPECT_TRUE(out.interrupted);
    EXPECT_EQ(out.exit_code, 5);
    if (kind == service::RequestKind::kSiting) {
      EXPECT_NE(out.output.find(" (partial)"), std::string::npos)
          << out.output;
    }
  }
}

}  // namespace
}  // namespace ct::core
