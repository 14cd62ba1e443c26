#include "core/siting.h"

#include <algorithm>
#include <stdexcept>

namespace ct::core {

namespace {

/// Visits every k-combination of indices [0, n).
void for_each_combination(std::size_t n, int k,
                          const std::function<void(const std::vector<std::size_t>&)>& visit) {
  if (k < 0) throw std::invalid_argument("for_each_combination: k < 0");
  std::vector<std::size_t> combo(static_cast<std::size_t>(k));
  const std::function<void(std::size_t, int)> recurse = [&](std::size_t start,
                                                            int depth) {
    if (depth == k) {
      visit(combo);
      return;
    }
    for (std::size_t i = start; i < n; ++i) {
      combo[static_cast<std::size_t>(depth)] = i;
      recurse(i + 1, depth + 1);
    }
  };
  recurse(0, 0);
}

}  // namespace

SitingRanking SitingOptimizer::rank(
    const ConfigBuilder& builder, const std::vector<std::string>& candidates,
    int slots, const std::vector<threat::ThreatScenario>& scenarios,
    runtime::CancellationToken* interrupt) {
  if (!builder) throw std::invalid_argument("SitingOptimizer: null builder");
  if (slots < 1 || static_cast<std::size_t>(slots) > candidates.size()) {
    throw std::invalid_argument("SitingOptimizer: bad slot count");
  }

  // Every candidate first, then one sweep over candidates x scenarios.
  std::vector<SitingScore> unscored;
  std::vector<scada::Configuration> configs;
  for_each_combination(
      candidates.size(), slots, [&](const std::vector<std::size_t>& combo) {
        SitingScore score;
        score.chosen.reserve(combo.size());
        for (const std::size_t i : combo) {
          score.chosen.push_back(candidates[i]);
        }
        score.config = builder(score.chosen);
        configs.push_back(score.config);
        unscored.push_back(std::move(score));
      });
  SitingRanking out;
  out.sweep = runner_.run(configs, scenarios, {}, interrupt);
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    std::vector<SitingScore> scores = unscored;
    for (std::size_t i = 0; i < scores.size(); ++i) {
      using threat::OperationalState;
      const OutcomeDistribution& outcomes =
          out.sweep.results[s * configs.size() + i].outcomes;
      SitingScore& score = scores[i];
      score.green_probability = outcomes.probability(OperationalState::kGreen);
      score.orange_probability =
          outcomes.probability(OperationalState::kOrange);
      score.red_probability = outcomes.probability(OperationalState::kRed);
      score.gray_probability = outcomes.probability(OperationalState::kGray);
      score.expected_badness = outcomes.expected_badness();
    }
    std::sort(scores.begin(), scores.end(),
              [](const SitingScore& a, const SitingScore& b) {
                if (a.expected_badness != b.expected_badness) {
                  return a.expected_badness < b.expected_badness;
                }
                return a.green_probability > b.green_probability;
              });
    out.by_scenario.push_back(std::move(scores));
  }
  return out;
}

SitingRanking SitingOptimizer::rank_backup_sites(
    const std::string& primary, const std::vector<std::string>& candidates,
    const std::vector<threat::ThreatScenario>& scenarios,
    runtime::CancellationToken* interrupt) {
  std::vector<std::string> pool;
  for (const std::string& c : candidates) {
    if (c != primary) pool.push_back(c);
  }
  return rank(
      [&primary](const std::vector<std::string>& chosen) {
        return scada::make_config_6_6(primary, chosen.at(0));
      },
      pool, 1, scenarios, interrupt);
}

SitingRanking SitingOptimizer::rank_site_pairs(
    const std::string& primary, const std::vector<std::string>& candidates,
    const std::vector<threat::ThreatScenario>& scenarios) {
  std::vector<std::string> pool;
  for (const std::string& c : candidates) {
    if (c != primary) pool.push_back(c);
  }
  return rank(
      [&primary](const std::vector<std::string>& chosen) {
        return scada::make_config_6_6_6(primary, chosen.at(0), chosen.at(1));
      },
      pool, 2, scenarios);
}

}  // namespace ct::core
