#include "sim/scada_des.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "threat/attacker.h"
#include "util/log.h"

namespace ct::sim {

namespace {

// Process-wide DES throughput accounting, registry-backed: chaos sweeps
// fold runs in from several workers, each touching only its thread-local
// shard. Function-local statics keep registration lazy and ordered.
struct DesMetrics {
  obs::Counter runs{"des.runs"};
  obs::Counter events{"des.events"};
  obs::Counter messages{"des.messages"};
  obs::Counter duplicates{"des.duplicates"};
  obs::Counter wall_us{"des.wall_us"};
  obs::Counter drop_loss{"des.drops.loss"};
  obs::Counter drop_site_down{"des.drops.site_down"};
  obs::Counter drop_isolation{"des.drops.isolation"};
  obs::Counter drop_link_down{"des.drops.link_down"};
  obs::Counter drop_crashed{"des.drops.crashed"};
  obs::Counter drop_in_flight{"des.drops.in_flight"};
  obs::Counter drop_transfer_loss{"des.drops.transfer_loss"};
  obs::Counter slab_grows{"des.pool.slab_grows"};
  obs::Counter pool_hits{"des.pool.msg_hits"};
  obs::Counter pool_misses{"des.pool.msg_misses"};
  obs::Gauge slab_capacity{"des.pool.slab_capacity"};
  obs::Gauge peak_queue{"des.pool.peak_queue"};
  obs::Histogram run_us{"des.run_us"};
};

DesMetrics& des_metrics() {
  static DesMetrics m;
  return m;
}

/// Stamps the measurement-only fields and folds the run — throughput,
/// per-cause drops, wall time — into the metrics registry. Runs after
/// outcome assembly so it cannot affect bit-identity.
void finish_run_timing(DesOutcome& outcome,
                       std::chrono::steady_clock::time_point started) {
  const auto elapsed = std::chrono::steady_clock::now() - started;
  const double wall_ms =
      std::chrono::duration<double, std::milli>(elapsed).count();
  outcome.sim_wall_ms = wall_ms;
  outcome.events_per_second =
      wall_ms > 0.0 ? static_cast<double>(outcome.events) / (wall_ms / 1000.0)
                    : 0.0;
  if (!obs::enabled()) return;
  DesMetrics& m = des_metrics();
  const auto wall_us = static_cast<std::uint64_t>(wall_ms * 1000.0);
  m.runs.inc();
  m.events.inc(outcome.events);
  m.messages.inc(outcome.messages);
  m.duplicates.inc(static_cast<std::uint64_t>(outcome.duplicates));
  m.wall_us.inc(wall_us);
  m.run_us.observe(wall_us);
  const auto& d = outcome.drops;
  m.drop_loss.inc(static_cast<std::uint64_t>(d.loss));
  m.drop_site_down.inc(static_cast<std::uint64_t>(d.site_down));
  m.drop_isolation.inc(static_cast<std::uint64_t>(d.isolation));
  m.drop_link_down.inc(static_cast<std::uint64_t>(d.link_down));
  m.drop_crashed.inc(static_cast<std::uint64_t>(d.crashed));
  m.drop_in_flight.inc(static_cast<std::uint64_t>(d.in_flight));
  m.drop_transfer_loss.inc(static_cast<std::uint64_t>(d.transfer_loss));
}

/// Folds the arena's event-slab and message-pool occupancy into the
/// registry (peak gauges + growth counters).
void fold_pool_stats(const DesArena& arena) {
  if (!obs::enabled()) return;
  DesMetrics& m = des_metrics();
  const Simulator::PoolStats sim_stats = arena.simulator_stats();
  const Network::PoolStats net_stats = arena.network_stats();
  m.slab_grows.inc(sim_stats.slab_grows);
  m.slab_capacity.max(sim_stats.slab_capacity);
  m.peak_queue.max(sim_stats.peak_queue);
  m.pool_hits.inc(net_stats.pool_hits);
  m.pool_misses.inc(net_stats.pool_misses);
}

}  // namespace

bool des_outcomes_identical(const DesOutcome& a, const DesOutcome& b) {
  return a.observed == b.observed && a.safety_violated == b.safety_violated &&
         a.max_outage_s == b.max_outage_s &&
         a.steady_availability == b.steady_availability &&
         a.events == b.events && a.messages == b.messages &&
         a.truncated == b.truncated && a.drops.loss == b.drops.loss &&
         a.drops.site_down == b.drops.site_down &&
         a.drops.isolation == b.drops.isolation &&
         a.drops.link_down == b.drops.link_down &&
         a.drops.crashed == b.drops.crashed &&
         a.drops.in_flight == b.drops.in_flight &&
         a.drops.transfer_loss == b.drops.transfer_loss &&
         a.duplicates == b.duplicates &&
         a.invariant_violations == b.invariant_violations &&
         a.availability_timeline == b.availability_timeline &&
         a.trace == b.trace && a.rejoins == b.rejoins &&
         a.rejoin_failures == b.rejoin_failures &&
         a.transfer_retry_rounds == b.transfer_retry_rounds &&
         a.max_catchup_s == b.max_catchup_s &&
         a.passive_replicas == b.passive_replicas &&
         a.stable_checkpoints == b.stable_checkpoints;
}

util::Digest des_outcome_digest(const DesOutcome& outcome) {
  util::Digest d;
  d.u64(static_cast<std::uint64_t>(outcome.observed))
      .boolean(outcome.safety_violated)
      .f64(outcome.max_outage_s)
      .f64(outcome.steady_availability)
      .u64(outcome.events)
      .u64(outcome.messages)
      .boolean(outcome.truncated);
  const DropCounters& drops = outcome.drops;
  d.u64(drops.loss)
      .u64(drops.site_down)
      .u64(drops.isolation)
      .u64(drops.link_down)
      .u64(drops.crashed)
      .u64(drops.in_flight)
      .u64(drops.transfer_loss);
  d.u64(outcome.duplicates);
  d.u64(outcome.invariant_violations.size());
  for (const std::string& line : outcome.invariant_violations) d.str(line);
  d.u64(outcome.availability_timeline.size());
  for (const double bucket : outcome.availability_timeline) d.f64(bucket);
  d.u64(outcome.trace.size());
  for (const std::string& line : outcome.trace) d.str(line);
  d.i64(outcome.rejoins)
      .i64(outcome.rejoin_failures)
      .i64(outcome.transfer_retry_rounds)
      .f64(outcome.max_catchup_s)
      .i64(outcome.passive_replicas)
      .i64(outcome.stable_checkpoints);
  return d;
}

DesCounters des_counters_snapshot() {
  DesMetrics& m = des_metrics();
  DesCounters c;
  c.runs = m.runs.value();
  c.events = m.events.value();
  c.wall_ms = static_cast<double>(m.wall_us.value()) / 1000.0;
  return c;
}

ScadaDes::ScadaDes(scada::Configuration config, DesOptions options)
    : config_(std::move(config)), options_(options) {
  if (config_.sites.empty()) {
    throw std::invalid_argument("ScadaDes: configuration has no sites");
  }
}

DesOutcome ScadaDes::run(const std::vector<bool>& site_flooded,
                         threat::AttackerCapability capability) const {
  if (site_flooded.size() != config_.sites.size()) {
    throw std::invalid_argument("ScadaDes: flood mask size mismatch");
  }
  threat::SystemState state;
  state.intrusions.assign(config_.sites.size(), 0);
  for (const bool flooded : site_flooded) {
    state.site_status.push_back(flooded ? threat::SiteStatus::kFlooded
                                        : threat::SiteStatus::kUp);
  }
  const threat::GreedyWorstCaseAttacker attacker;
  return run(attacker.attack(config_, state, capability));
}

DesOutcome ScadaDes::run(const threat::SystemState& attacked_state) const {
  DesArena arena;
  return run_impl(attacked_state, nullptr, arena);
}

DesOutcome ScadaDes::run(const threat::SystemState& attacked_state,
                         const FaultPlan& plan) const {
  DesArena arena;
  return run_impl(attacked_state, &plan, arena);
}

DesOutcome ScadaDes::run(const threat::SystemState& attacked_state,
                         DesArena& arena) const {
  return run_impl(attacked_state, nullptr, arena);
}

DesOutcome ScadaDes::run(const threat::SystemState& attacked_state,
                         const FaultPlan& plan, DesArena& arena) const {
  return run_impl(attacked_state, &plan, arena);
}

DesOutcome ScadaDes::run_impl(const threat::SystemState& attacked_state,
                              const FaultPlan* plan, DesArena& arena) const {
  obs::Span span("des.run");
  const auto started = std::chrono::steady_clock::now();
  const std::size_t n_sites = config_.sites.size();
  if (attacked_state.site_status.size() != n_sites ||
      attacked_state.intrusions.size() != n_sites) {
    throw std::invalid_argument("ScadaDes: state size mismatch");
  }

  Simulator& sim = arena.simulator();  // reset for this run
  sim.set_tracing(options_.tracing);
  sim.set_event_limit(options_.event_limit);

  // Network: one site per control site plus the client (field) site.
  std::vector<int> nodes_per_site;
  for (const scada::ControlSite& site : config_.sites) {
    nodes_per_site.push_back(site.replicas);
  }
  const int client_site = static_cast<int>(n_sites);
  nodes_per_site.push_back(2);  // client + failover controller
  NetworkOptions net_options = options_.net;
  if (plan != nullptr) {
    // The plan's message impairments are layered on top of the base WAN.
    net_options.duplicate_probability =
        std::max(net_options.duplicate_probability,
                 plan->duplicate_probability);
    net_options.reorder_probability =
        std::max(net_options.reorder_probability, plan->reorder_probability);
    net_options.reorder_window_s =
        std::max(net_options.reorder_window_s, plan->reorder_window_s);
    net_options.control_loss_probability =
        std::max(net_options.control_loss_probability,
                 plan->transfer_loss_probability);
  }
  Network& net = arena.network(std::move(nodes_per_site), net_options);

  // Invariant monitor: safety is always watched; liveness when enabled.
  InvariantOptions inv_options;
  inv_options.f = config_.style == scada::ReplicationStyle::kIntrusionTolerant
                      ? config_.intrusion_tolerance_f
                      : 0;
  inv_options.liveness_gap_s = options_.liveness_gap_s;
  InvariantMonitor monitor(sim, inv_options);

  // Client workload.
  const bool bft = config_.style == scada::ReplicationStyle::kIntrusionTolerant;
  WorkloadOptions wopts;
  wopts.request_interval_s = options_.request_interval_s;
  wopts.request_timeout_s = options_.request_timeout_s;
  wopts.replies_needed = bft ? config_.intrusion_tolerance_f + 1 : 1;
  wopts.retransmit_limit = options_.request_retransmit_limit;
  wopts.retransmit_seed = options_.net.impairment_seed;
  ClientWorkload client(sim, net, {client_site, 0}, wopts);
  client.set_monitor(&monitor);
  std::vector<NodeAddr> targets;
  for (std::size_t s = 0; s < n_sites; ++s) {
    for (int node = 0; node < config_.sites[s].replicas; ++node) {
      targets.push_back({static_cast<int>(s), node});
    }
  }
  client.set_targets(std::move(targets));

  // Replicas.
  std::vector<std::unique_ptr<PbReplica>> pb_replicas;
  std::vector<std::unique_ptr<BftReplica>> bft_replicas;
  std::vector<std::unique_ptr<RecoveryScheduler>> schedulers;
  // Indexed [site][node] for compromise targeting.
  std::vector<std::vector<PbReplica*>> pb_by_site(n_sites);
  std::vector<std::vector<BftReplica*>> bft_by_site(n_sites);

  BftOptions group_opts = options_.bft;
  group_opts.f = config_.intrusion_tolerance_f;
  group_opts.k = config_.proactive_recovery_k;

  int next_group_id = 0;
  const auto make_bft_group = [&](const std::vector<int>& sites,
                                  bool initially_active) {
    std::vector<int> counts;
    for (const int s : sites) {
      counts.push_back(config_.sites[static_cast<std::size_t>(s)].replicas);
    }
    const std::vector<NodeAddr> group = interleaved_group(sites, counts);
    std::vector<BftReplica*> members;
    const int group_id = next_group_id++;
    for (std::size_t i = 0; i < group.size(); ++i) {
      auto replica = std::make_unique<BftReplica>(
          sim, net, group[i], group, static_cast<int>(i), group_opts,
          initially_active);
      replica->set_monitor(&monitor, group_id);
      members.push_back(replica.get());
      bft_by_site[static_cast<std::size_t>(group[i].site)].push_back(
          replica.get());
      bft_replicas.push_back(std::move(replica));
    }
    // One proactive-recovery rotation per group (k = 1).
    if (config_.proactive_recovery_k > 0) {
      schedulers.push_back(
          std::make_unique<RecoveryScheduler>(sim, members, group_opts));
    }
  };

  if (bft) {
    if (config_.active_multisite) {
      std::vector<int> hot_sites;
      for (std::size_t s = 0; s < n_sites; ++s) {
        if (config_.sites[s].hot) hot_sites.push_back(static_cast<int>(s));
      }
      make_bft_group(hot_sites, true);
    } else {
      for (std::size_t s = 0; s < n_sites; ++s) {
        make_bft_group({static_cast<int>(s)}, config_.sites[s].hot);
      }
    }
  } else {
    for (std::size_t s = 0; s < n_sites; ++s) {
      for (int node = 0; node < config_.sites[s].replicas; ++node) {
        auto replica = std::make_unique<PbReplica>(
            sim, net, NodeAddr{static_cast<int>(s), node}, options_.pb,
            config_.sites[s].hot);
        replica->set_monitor(&monitor);
        pb_by_site[s].push_back(replica.get());
        pb_replicas.push_back(std::move(replica));
      }
    }
  }

  // Failover controller when the configuration has a cold backup site.
  std::unique_ptr<FailoverController> controller;
  for (std::size_t s = 0; s < n_sites; ++s) {
    if (!config_.sites[s].hot) {
      controller = std::make_unique<FailoverController>(
          sim, net, NodeAddr{client_site, 1}, client, static_cast<int>(s),
          options_.pb);
      break;
    }
  }

  // Fault plan: map skew/compromise hooks onto the replica objects and arm
  // every scheduled event.
  std::unique_ptr<FaultInjector> injector;
  if (plan != nullptr) {
    const auto for_replica = [&, bft](NodeAddr addr, auto&& pb_fn,
                                      auto&& bft_fn) {
      if (addr.site < 0 || static_cast<std::size_t>(addr.site) >= n_sites) {
        return;  // client site and out-of-range targets are not replicas
      }
      const auto site = static_cast<std::size_t>(addr.site);
      const auto node = static_cast<std::size_t>(addr.node);
      if (bft) {
        if (node < bft_by_site[site].size()) bft_fn(bft_by_site[site][node]);
      } else {
        if (node < pb_by_site[site].size()) pb_fn(pb_by_site[site][node]);
      }
    };
    FaultInjector::Hooks hooks;
    hooks.set_timeout_scale = [for_replica](NodeAddr addr, double scale) {
      for_replica(
          addr, [scale](PbReplica* r) { r->set_timeout_scale(scale); },
          [scale](BftReplica* r) { r->set_timeout_scale(scale); });
    };
    hooks.compromise = [for_replica](NodeAddr addr) {
      for_replica(
          addr, [](PbReplica* r) { r->set_compromised(true); },
          [](BftReplica* r) { r->set_compromised(true); });
    };
    hooks.restart = [for_replica](NodeAddr addr) {
      for_replica(
          addr, [](PbReplica* r) { r->on_restart(); },
          [](BftReplica* r) { r->on_restart(); });
    };
    injector = std::make_unique<FaultInjector>(sim, net, *plan,
                                               std::move(hooks));
    injector->arm();
    // Scheduled fault windows are declared outages: only gaps the plan
    // does not explain count against liveness.
    for (const auto& [from, to] :
         plan->excused_windows(options_.liveness_pad_s)) {
      monitor.declare_outage(from, to);
    }
  }

  // Declared outages from the compound threat itself: a flooded site
  // shapes service from t=0; isolation/intrusion effects start at attack
  // time. The liveness invariant only bites on unexplained gaps.
  bool any_flooded = false;
  bool any_attack = false;
  for (std::size_t s = 0; s < n_sites; ++s) {
    any_flooded |=
        attacked_state.site_status[s] == threat::SiteStatus::kFlooded;
    any_attack |=
        attacked_state.site_status[s] == threat::SiteStatus::kIsolated ||
        attacked_state.intrusions[s] > 0;
  }
  if (any_flooded) {
    monitor.declare_outage(0.0, options_.horizon_s);
  } else if (any_attack) {
    monitor.declare_outage(options_.attack_time_s, options_.horizon_s);
  }

  // Timeline. Floods are in effect from t=0.
  for (std::size_t s = 0; s < n_sites; ++s) {
    if (attacked_state.site_status[s] == threat::SiteStatus::kFlooded) {
      net.set_site_down(static_cast<int>(s), true);
      if (sim.tracing()) {
        sim.trace("site " + std::to_string(s) + " flooded (down from t=0)");
      }
    }
  }
  for (auto& r : pb_replicas) r->start();
  for (auto& r : bft_replicas) r->start();
  for (auto& s : schedulers) s->start(options_.bft.recovery_period_s);
  client.start(0.0, options_.horizon_s);
  if (controller) controller->start(0.0, options_.horizon_s);

  // The cyberattack fires at attack_time_s.
  sim.schedule_at(options_.attack_time_s, [&] {
    for (std::size_t s = 0; s < n_sites; ++s) {
      if (attacked_state.site_status[s] == threat::SiteStatus::kIsolated) {
        net.set_site_isolated(static_cast<int>(s), true);
        if (sim.tracing()) {
          sim.trace("site " + std::to_string(s) + " ISOLATED by attacker");
        }
      }
      const int intrusions = attacked_state.intrusions[s];
      for (int node = 0; node < intrusions; ++node) {
        if (bft) {
          bft_by_site[s].at(static_cast<std::size_t>(node))->set_compromised(true);
        } else {
          pb_by_site[s].at(static_cast<std::size_t>(node))->set_compromised(true);
        }
        if (sim.tracing()) {
          sim.trace("replica s" + std::to_string(s) + "/n" +
                    std::to_string(node) + " COMPROMISED by attacker");
        }
      }
    }
  });

  sim.run_until(options_.horizon_s);

  // Classify what the client observed.
  DesOutcome outcome;
  outcome.safety_violated = client.safety_violated();
  const double judge_to = options_.horizon_s - 10.0;
  const double settle_from = options_.horizon_s - options_.settle_window_s;
  outcome.steady_availability = client.success_fraction(settle_from, judge_to);
  outcome.max_outage_s = client.max_gap(0.0, judge_to);
  outcome.events = sim.events_processed();
  outcome.messages = net.messages_sent();
  outcome.truncated = sim.event_limit_hit();
  outcome.drops = net.drop_counters();
  outcome.duplicates = net.messages_duplicated();
  monitor.finalize(0.0, judge_to);
  outcome.invariant_violations = monitor.violations();
  outcome.availability_timeline =
      client.availability_series(60.0, 0.0, options_.horizon_s);
  outcome.trace = sim.trace_log();

  // Recovery accounting across both stacks.
  const auto fold_stats = [&outcome](const RejoinStats& s) {
    outcome.rejoins += s.rejoins;
    outcome.rejoin_failures += s.failures;
    outcome.transfer_retry_rounds += s.retry_rounds;
    outcome.max_catchup_s = std::max(outcome.max_catchup_s, s.max_catchup_s);
  };
  for (const auto& r : bft_replicas) {
    fold_stats(r->rejoin_stats());
    if (r->passive()) ++outcome.passive_replicas;
    outcome.stable_checkpoints += r->checkpoints_formed();
  }
  for (const auto& r : pb_replicas) fold_stats(r->rejoin_stats());

  if (outcome.truncated) {
    CT_LOG(kWarn, "scada_des")
        << "run for configuration '" << config_.name
        << "' hit the event limit (" << outcome.events
        << " events) — observed color may be wrong";
  }

  if (outcome.safety_violated) {
    outcome.observed = threat::OperationalState::kGray;
  } else if (outcome.steady_availability < 0.5) {
    outcome.observed = threat::OperationalState::kRed;
  } else if (outcome.max_outage_s > options_.orange_gap_s) {
    outcome.observed = threat::OperationalState::kOrange;
  } else {
    outcome.observed = threat::OperationalState::kGreen;
  }
  finish_run_timing(outcome, started);
  fold_pool_stats(arena);
  return outcome;
}

}  // namespace ct::sim
