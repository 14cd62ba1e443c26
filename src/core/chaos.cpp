#include "core/chaos.h"

#include <algorithm>
#include <utility>

#include "core/evaluator.h"
#include "threat/attacker.h"
#include "util/log.h"
#include "util/rng.h"

namespace ct::core {

sim::DesOptions chaos_des_options() {
  sim::DesOptions options;
  options.horizon_s = 600.0;
  options.attack_time_s = 120.0;
  options.settle_window_s = 150.0;
  options.orange_gap_s = 70.0;
  options.request_interval_s = 2.0;
  options.pb.activation_delay_s = 120.0;
  options.pb.controller_outage_threshold_s = 15.0;
  options.pb.controller_check_interval_s = 3.0;
  options.bft.activation_delay_s = 120.0;
  options.bft.view_timeout_s = 8.0;
  options.bft.recovery_period_s = 60.0;
  options.bft.recovery_duration_s = 10.0;
  options.liveness_gap_s = 65.0;
  return options;
}

sim::DesOptions a4_des_options() {
  sim::DesOptions options;
  options.horizon_s = 900.0;
  options.attack_time_s = 150.0;
  options.settle_window_s = 200.0;
  options.orange_gap_s = 100.0;
  options.pb.activation_delay_s = 180.0;
  options.pb.controller_outage_threshold_s = 15.0;
  options.pb.controller_check_interval_s = 3.0;
  options.bft.activation_delay_s = 180.0;
  options.bft.view_timeout_s = 8.0;
  return options;
}

ChaosRunner::ChaosRunner(ChaosOptions options) : options_(std::move(options)) {}

namespace {

threat::SystemState clean_attacked_state(const scada::Configuration& config,
                                         threat::ThreatScenario scenario) {
  threat::SystemState base;
  base.site_status.assign(config.sites.size(), threat::SiteStatus::kUp);
  base.intrusions.assign(config.sites.size(), 0);
  return threat::GreedyWorstCaseAttacker{}.attack(
      config, base, threat::capability_for(scenario));
}

/// Per-worker simulator/network arena: a sweep runs hundreds of plans
/// back-to-back, and reusing the engine's slabs and pools across them is
/// where the warmup cost amortizes. thread_local because plans run on the
/// ensemble pool's workers; each run still starts from reset() state.
sim::DesArena& plan_arena() {
  thread_local sim::DesArena arena;
  return arena;
}

}  // namespace

bool ChaosRunner::fails(const scada::Configuration& config,
                        const threat::SystemState& attacked,
                        threat::OperationalState expected,
                        const sim::FaultPlan& plan) const {
  const sim::ScadaDes des(config, options_.des);
  const sim::DesOutcome outcome = des.run(attacked, plan, plan_arena());
  return outcome.observed != expected || !outcome.invariant_violations.empty();
}

sim::FaultPlan ChaosRunner::shrink(const scada::Configuration& config,
                                   const threat::SystemState& attacked,
                                   threat::OperationalState expected,
                                   const sim::FaultPlan& plan) const {
  sim::FaultPlan minimal = plan;
  // Greedy event removal to a fixed point: drop any event whose removal
  // keeps the failure, then try zeroing the message impairments.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < minimal.events.size(); ++i) {
      sim::FaultPlan candidate = minimal;
      candidate.events.erase(candidate.events.begin() +
                             static_cast<std::ptrdiff_t>(i));
      if (fails(config, attacked, expected, candidate)) {
        minimal = std::move(candidate);
        changed = true;
        break;  // restart: indices shifted
      }
    }
  }
  {
    sim::FaultPlan candidate = minimal;
    candidate.duplicate_probability = 0.0;
    if (fails(config, attacked, expected, candidate)) minimal = candidate;
  }
  {
    sim::FaultPlan candidate = minimal;
    candidate.reorder_probability = 0.0;
    candidate.reorder_window_s = 0.0;
    if (fails(config, attacked, expected, candidate)) minimal = candidate;
  }
  {
    sim::FaultPlan candidate = minimal;
    candidate.transfer_loss_probability = 0.0;
    if (fails(config, attacked, expected, candidate)) minimal = candidate;
  }
  return minimal;
}

ChaosReport ChaosRunner::sweep(const scada::Configuration& config,
                               runtime::EnsembleRunner& runtime) const {
  ChaosReport report;
  report.config_name = config.name;
  const sim::ScadaDes des(config, options_.des);

  std::vector<int> nodes_per_site;
  for (const scada::ControlSite& site : config.sites) {
    nodes_per_site.push_back(site.replicas);
  }
  // Faults must settle before the availability window starts, or benign
  // hiccups would legitimately change the color.
  const double window_to = std::max(
      options_.shape.window_from_s + 1.0,
      options_.des.horizon_s - options_.des.settle_window_s - 60.0);
  sim::BenignPlanShape shape = options_.shape;
  shape.window_to_s = window_to;
  sim::RestartPlanShape restart_shape = options_.restart_shape;
  restart_shape.window_to_s =
      std::max(restart_shape.window_from_s + 1.0, window_to);

  // Each plan is a pure function of (base_seed, plan index) and every DES
  // run builds its state locally, so plans are the unit of parallelism;
  // folding per-plan results in plan order keeps the report identical at
  // any --jobs value.
  struct PlanResult {
    int runs = 0;
    std::uint64_t drops = 0;
    std::uint64_t duplicates = 0;
    int rejoins = 0;
    std::vector<ChaosFinding> findings;
  };
  const std::size_t plans = static_cast<std::size_t>(
      std::max(0, options_.plans));
  std::vector<PlanResult> per_plan(plans);

  const util::Rng base_rng(options_.base_seed, "chaos");
  const auto run_plan = [&](std::size_t p) {
    PlanResult& slot = per_plan[p];
    util::Rng plan_rng =
        base_rng.child("plan", static_cast<std::uint64_t>(p));
    const sim::FaultPlan plan =
        options_.plan_style == ChaosOptions::PlanStyle::kRestartHeavy
            ? sim::random_restart_plan(restart_shape, nodes_per_site, plan_rng)
            : sim::random_benign_plan(shape, nodes_per_site, plan_rng);
    for (const threat::ThreatScenario scenario : options_.scenarios) {
      const threat::SystemState attacked =
          clean_attacked_state(config, scenario);
      const threat::OperationalState expected = evaluate(config, attacked);
      const sim::DesOutcome outcome = des.run(attacked, plan, plan_arena());
      ++slot.runs;
      slot.drops += outcome.drops.total();
      slot.duplicates += outcome.duplicates;
      slot.rejoins += outcome.rejoins;
      if (outcome.observed == expected &&
          outcome.invariant_violations.empty()) {
        continue;
      }
      CT_LOG(kWarn, "chaos")
          << config.name << " seed " << p << " scenario "
          << threat::scenario_name(scenario) << ": expected "
          << threat::state_name(expected) << ", observed "
          << threat::state_name(outcome.observed) << ", "
          << outcome.invariant_violations.size()
          << " invariant violation(s) — shrinking";
      ChaosFinding finding;
      finding.config_name = config.name;
      finding.plan_seed = static_cast<std::uint64_t>(p);
      finding.scenario = scenario;
      finding.expected = expected;
      finding.observed = outcome.observed;
      finding.violations = outcome.invariant_violations;
      finding.minimal_plan = shrink(config, attacked, expected, plan);
      finding.replay_schedule = finding.minimal_plan.to_schedule();
      slot.findings.push_back(std::move(finding));
    }
  };

  // Per-plan containment: one throwing plan (a DES bug, an injected fault)
  // must cost that plan, not the sweep. No retries — the DES is a pure
  // function of the plan, so a second attempt cannot heal anything.
  const runtime::IsolatedRunResult isolated = runtime.pool().for_each_isolated(
      plans, 1,
      [&](std::size_t p, unsigned /*attempt*/,
          const runtime::CancellationToken& /*token*/) { run_plan(p); });
  for (const runtime::TaskFailure& f : isolated.failures) {
    report.plan_failures.push_back(runtime::make_failure_record(
        f, static_cast<std::uint64_t>(f.index), options_.base_seed));
  }

  for (PlanResult& slot : per_plan) {
    ++report.plans_run;
    report.runs += slot.runs;
    report.total_drops += slot.drops;
    report.total_duplicates += slot.duplicates;
    report.total_rejoins += slot.rejoins;
    for (ChaosFinding& finding : slot.findings) {
      report.findings.push_back(std::move(finding));
    }
  }
  return report;
}

std::vector<ChaosReport> ChaosRunner::sweep_all(
    const std::vector<scada::Configuration>& configs,
    runtime::EnsembleRunner& runtime) const {
  std::vector<ChaosReport> reports;
  reports.reserve(configs.size());
  for (const scada::Configuration& config : configs) {
    reports.push_back(sweep(config, runtime));
  }
  return reports;
}

ChaosFinding ChaosRunner::compromise_probe(
    const scada::Configuration& config) const {
  threat::SystemState clean;
  clean.site_status.assign(config.sites.size(), threat::SiteStatus::kUp);
  clean.intrusions.assign(config.sites.size(), 0);
  const threat::OperationalState expected = evaluate(config, clean);

  // One more intrusion than the architecture tolerates, spread across the
  // hot sites' lowest node indices (the worst case the paper considers),
  // plus a decoy crash the shrinker should eliminate.
  sim::FaultPlan plan;
  int remaining = config.safety_threshold();
  for (std::size_t s = 0; s < config.sites.size() && remaining > 0; ++s) {
    if (!config.sites[s].hot) continue;
    const int here = std::min(remaining, config.sites[s].replicas);
    for (int node = 0; node < here; ++node) {
      sim::FaultEvent e;
      e.kind = sim::FaultKind::kCompromise;
      e.at = options_.des.attack_time_s;
      e.node = {static_cast<int>(s), node};
      plan.events.push_back(e);
    }
    remaining -= here;
  }
  sim::FaultEvent decoy;
  decoy.kind = sim::FaultKind::kCrash;
  decoy.at = options_.des.attack_time_s / 2.0;
  decoy.duration = 5.0;
  decoy.node = {0, config.sites[0].replicas - 1};
  plan.events.push_back(decoy);

  const sim::ScadaDes des(config, options_.des);
  const sim::DesOutcome outcome = des.run(clean, plan, plan_arena());

  ChaosFinding finding;
  finding.config_name = config.name;
  finding.scenario = threat::ThreatScenario::kHurricane;
  finding.expected = expected;
  finding.observed = outcome.observed;
  finding.violations = outcome.invariant_violations;
  finding.minimal_plan = shrink(config, clean, expected, plan);
  finding.replay_schedule = finding.minimal_plan.to_schedule();
  return finding;
}

}  // namespace ct::core
