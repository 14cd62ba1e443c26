#include "core/restoration.h"

#include <algorithm>
#include <stdexcept>

#include "core/evaluator.h"
#include "threat/attacker.h"
#include "util/stats.h"

namespace ct::core {

namespace {

using threat::OperationalState;
using threat::SiteStatus;
using threat::SystemState;

/// Computes incident costs given concrete per-site restore times (hours).
IncidentCosts costs_with_restore_times(const scada::Configuration& config,
                                       const SystemState& state,
                                       const std::vector<double>& restore_at,
                                       const RestorationModel& model,
                                       double detection_hours) {
  IncidentCosts costs;
  const OperationalState now = evaluate(config, state);

  if (now == OperationalState::kGray) {
    // Incorrect operation until the compromise is detected, then a cleanup
    // outage while the affected masters are rebuilt.
    costs.incorrect_hours = detection_hours;
    costs.downtime_hours = model.compromise_cleanup_hours;
    return costs;
  }
  if (now == OperationalState::kGreen) return costs;
  if (now == OperationalState::kOrange) {
    costs.downtime_hours = model.activation_minutes / 60.0;
    return costs;
  }

  // Red: replay site restorations in time order until the evaluator stops
  // reporting red. Restored sites come back kUp (their intrusions were
  // never effective while the site was down; the compromised-site case is
  // the gray branch above).
  std::vector<std::size_t> order(restore_at.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return restore_at[a] < restore_at[b];
  });

  SystemState future = state;
  for (const std::size_t site : order) {
    if (future.site_status[site] == SiteStatus::kUp) continue;
    future.site_status[site] = SiteStatus::kUp;
    const OperationalState then = evaluate(config, future);
    if (then != OperationalState::kRed) {
      double downtime = restore_at[site];
      if (then == OperationalState::kOrange) {
        // The restored path still needs the cold backup brought online.
        downtime += model.activation_minutes / 60.0;
      }
      costs.downtime_hours = downtime;
      return costs;
    }
  }
  // No restoration path (should not happen: every site eventually
  // restores); treat as the slowest restore.
  costs.downtime_hours =
      restore_at.empty() ? 0.0
                         : *std::max_element(restore_at.begin(),
                                             restore_at.end());
  return costs;
}

std::vector<double> mean_restore_times(const SystemState& state,
                                       const RestorationModel& model) {
  std::vector<double> out(state.site_status.size(), 0.0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    switch (state.site_status[i]) {
      case SiteStatus::kUp: out[i] = 0.0; break;
      case SiteStatus::kFlooded: out[i] = model.flood_repair_hours; break;
      case SiteStatus::kIsolated: out[i] = model.isolation_duration_hours; break;
    }
  }
  return out;
}

}  // namespace

IncidentCosts expected_incident_costs(const scada::Configuration& config,
                                      const SystemState& state,
                                      const RestorationModel& model) {
  return costs_with_restore_times(config, state,
                                  mean_restore_times(state, model), model,
                                  model.compromise_detection_hours);
}

IncidentCosts sample_incident_costs(const scada::Configuration& config,
                                    const SystemState& state,
                                    const RestorationModel& model,
                                    util::Rng& rng) {
  std::vector<double> restore(state.site_status.size(), 0.0);
  for (std::size_t i = 0; i < restore.size(); ++i) {
    switch (state.site_status[i]) {
      case SiteStatus::kUp: restore[i] = 0.0; break;
      case SiteStatus::kFlooded:
        restore[i] = rng.exponential(model.flood_repair_hours);
        break;
      case SiteStatus::kIsolated:
        restore[i] = rng.exponential(model.isolation_duration_hours);
        break;
    }
  }
  const double detection = rng.exponential(model.compromise_detection_hours);
  return costs_with_restore_times(config, state, restore, model, detection);
}

namespace {

/// Costs of one realization: the deterministic expectation plus the
/// stochastic downtime draws. Pure in (config, scenario, model, seed,
/// realization index) — the unit of parallelism.
struct RealizationCosts {
  IncidentCosts expected;
  std::vector<double> sampled_downtimes;
};

RealizationCosts realization_costs(
    const scada::Configuration& config,
    const threat::GreedyWorstCaseAttacker& attacker,
    const threat::AttackerCapability& capability,
    const surge::HurricaneRealization& realization, std::size_t index,
    const RestorationModel& model, std::size_t samples_per_realization,
    const util::Rng& base) {
  const SystemState post_disaster = threat::post_disaster_state(
      config, [&](std::string_view asset_id) {
        return realization.asset_failed(std::string(asset_id));
      });
  const SystemState attacked =
      attacker.attack(config, post_disaster, capability);

  RealizationCosts costs;
  costs.expected = expected_incident_costs(config, attacked, model);
  if (samples_per_realization > 0) {
    util::Rng rng = base.child("realization", index);
    costs.sampled_downtimes.reserve(samples_per_realization);
    for (std::size_t s = 0; s < samples_per_realization; ++s) {
      costs.sampled_downtimes.push_back(
          sample_incident_costs(config, attacked, model, rng).downtime_hours);
    }
  } else {
    costs.sampled_downtimes.push_back(costs.expected.downtime_hours);
  }
  return costs;
}

}  // namespace

RestorationResult analyze_restoration(
    const scada::Configuration& config, threat::ThreatScenario scenario,
    const std::vector<surge::HurricaneRealization>& realizations,
    const RestorationModel& model, runtime::EnsembleRunner& runtime,
    std::size_t samples_per_realization, std::uint64_t seed) {
  const threat::GreedyWorstCaseAttacker attacker;
  const threat::AttackerCapability capability =
      threat::capability_for(scenario);
  const util::Rng base(seed, "restoration");

  std::vector<RealizationCosts> per_realization(realizations.size());
  runtime.pool().parallel_for_each(
      realizations.size(), runtime.options().chunk, [&](std::size_t r) {
        per_realization[r] =
            realization_costs(config, attacker, capability, realizations[r],
                              r, model, samples_per_realization, base);
      });

  // Fold in realization order: bit-identical at any --jobs value.
  RestorationResult result;
  result.config_name = config.name;
  result.scenario = scenario;
  util::RunningStats downtime;
  util::RunningStats incorrect;
  std::vector<double> sampled_downtimes;
  std::size_t with_downtime = 0;
  for (const RealizationCosts& costs : per_realization) {
    downtime.add(costs.expected.downtime_hours);
    incorrect.add(costs.expected.incorrect_hours);
    if (costs.expected.downtime_hours > 0.0) ++with_downtime;
    sampled_downtimes.insert(sampled_downtimes.end(),
                             costs.sampled_downtimes.begin(),
                             costs.sampled_downtimes.end());
  }
  result.expected_downtime_hours = downtime.mean();
  result.expected_incorrect_hours = incorrect.mean();
  result.p95_downtime_hours =
      sampled_downtimes.empty()
          ? 0.0
          : util::exact_quantile(sampled_downtimes, 0.95);
  result.p_any_downtime =
      per_realization.empty()
          ? 0.0
          : static_cast<double>(with_downtime) /
                static_cast<double>(per_realization.size());
  return result;
}

}  // namespace ct::core
