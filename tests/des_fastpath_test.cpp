// Golden-digest gate for the DES engine: every outcome the pooled engine
// (slab events, timer wheel, zero-copy messaging, flat quorum state)
// produces over the recorded corpora must fold into the committed
// per-cell digest below. des_outcome_digest covers exactly the fields
// des_outcomes_identical compares — observed color, safety, availability
// timeline, invariant-monitor verdicts, drop/rejoin accounting, the trace,
// everything except the two wall-clock measurement fields.
//
// The 40 cells:
//   - benign/<config>/seed<s>, restart/<config>/seed<s>: the ChaosRunner-
//     exact plan corpora. Plans come from util::Rng(seed, "chaos")
//     .child("plan", p), p < 50, over every paper configuration at seeds
//     {1, 2, 3}, cycling the threat scenario per plan. 30 cells.
//   - a4/<config>: every flood mask x scenario without a plan, under
//     core::a4_des_options() (bench_des's corpus). 5 cells.
//   - traced/<config>: the same plan-less corpus under
//     core::chaos_des_options() with tracing on, so the trace content is
//     pinned too. 5 cells.
//
// The goldens were recorded when a verbatim copy of the pre-overhaul
// engine still existed, and both engines gave these digests on every
// cell. On an intended behaviour change, copy the digest the failure
// prints into kGolden and record the change in CHANGES.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/chaos.h"
#include "golden.h"
#include "runtime/task_pool.h"
#include "scada/configuration.h"
#include "sim/fault_injector.h"
#include "sim/scada_des.h"
#include "threat/attacker.h"
#include "threat/scenario.h"
#include "util/digest.h"
#include "util/rng.h"

namespace ct::sim {
namespace {

constexpr int kPlansPerCell = 50;

using golden::Golden;

constexpr Golden kGolden[] = {
    {"benign/2/seed1", "071a1eb819733c6679628e7a72ad4683"},
    {"benign/2/seed2", "1c66e12150347c6c933a62106a4d0b91"},
    {"benign/2/seed3", "448b1dba901b6def5d9dc342c594e8cb"},
    {"benign/2-2/seed1", "e116510eddefe8602c6720c3f57c8919"},
    {"benign/2-2/seed2", "88e1b3b30ddedf4b2eb1cde146df550d"},
    {"benign/2-2/seed3", "2c26d1de068aacfc99c43a2731834455"},
    {"benign/6/seed1", "4fd27c4cb9eaac120ffa4141e4e564b3"},
    {"benign/6/seed2", "a2343dc8e588af2661d817c5d273d6e4"},
    {"benign/6/seed3", "6130b3c69fe7d36184f9d71774697f8c"},
    {"benign/6-6/seed1", "4c47085be6175efa8d7ecd1c3ed1e0b3"},
    {"benign/6-6/seed2", "7cc670607b16d7439798be5aa0cf763b"},
    {"benign/6-6/seed3", "c853633a41ea00e976f97791f0a3efa9"},
    {"benign/6+6+6/seed1", "dbb794ed5cc6e804a368e4b9db58fa77"},
    {"benign/6+6+6/seed2", "375e25e47e6dffdced15d61ce6bddc6d"},
    {"benign/6+6+6/seed3", "c5220ad6d5b579fc3fe023b6bed23ef5"},
    {"restart/2/seed1", "33834c69fe4b3276c25975db8d85f55d"},
    {"restart/2/seed2", "feb5d77d6a185da0a2ccd6d1208e40d8"},
    {"restart/2/seed3", "efd4fbb5f8323ad73b5390f6bf2471d3"},
    {"restart/2-2/seed1", "fb1a349beb256748148d748b1562922a"},
    {"restart/2-2/seed2", "19a8a4b811f246327182bd95126ec2ed"},
    {"restart/2-2/seed3", "01fecae93692a2e2abb2d58d8f1147a5"},
    {"restart/6/seed1", "f905775412b9b09a0df5112cae0a1146"},
    {"restart/6/seed2", "cf1104ff63b7aa378f728851dee80282"},
    {"restart/6/seed3", "4fc45706811d1570b3656ed8e407ef7c"},
    {"restart/6-6/seed1", "24339c0cf6d64bd6bf26024fc32df67b"},
    {"restart/6-6/seed2", "78ef11eb12514e82a49d481d8ac8942e"},
    {"restart/6-6/seed3", "6d89525c803d70181089d1067cc4f17b"},
    {"restart/6+6+6/seed1", "59e8cc3a93e1639ecbae3344efd1fdb8"},
    {"restart/6+6+6/seed2", "b35bd3fc033343d539f043506adbbd5f"},
    {"restart/6+6+6/seed3", "eb1e55404d7235122ea8f5947bc86325"},
    {"a4/2", "aaff3f00b13f725a9bdbd796f6472f0c"},
    {"a4/2-2", "d55a40123995c27614b4fad7a37dc48d"},
    {"a4/6", "51865f2fcfcfba36e58ddd9685eaa88b"},
    {"a4/6-6", "cb471c1eee69bfc4be89c8f257b3d9e3"},
    {"a4/6+6+6", "6725d9cfa9bdcc219b04212cbb6dfaa3"},
    {"traced/2", "502b5ad213edb8561508a00fe599581c"},
    {"traced/2-2", "f25b8a311d9c9aed69465e2c5e914689"},
    {"traced/6", "258ebd095cc638b130fc6b8632186fd8"},
    {"traced/6-6", "8002d88970e6cd779920972c2e87b13d"},
    {"traced/6+6+6", "c14ebf928a04970b3a68aa6b7386e186"},
};

/// Folds one run's outcome digest into its cell's digest, in run order.
void fold(util::Digest& cell, const DesOutcome& outcome) {
  const auto value = des_outcome_digest(outcome).value();
  cell.u64(value[0]).u64(value[1]);
}

const std::vector<scada::Configuration>& configs() {
  static const auto all =
      scada::paper_configurations("primary", "backup", "dc");
  return all;
}

threat::SystemState attacked_state(const scada::Configuration& config,
                                   threat::ThreatScenario scenario) {
  threat::SystemState base;
  base.site_status.assign(config.sites.size(), threat::SiteStatus::kUp);
  base.intrusions.assign(config.sites.size(), 0);
  return threat::GreedyWorstCaseAttacker{}.attack(
      config, base, threat::capability_for(scenario));
}

enum class Corpus { kBenign, kRestartHeavy };

/// One chaos cell: the plans ChaosRunner would generate for (config,
/// seed), each run under a scenario cycled by plan index so floods,
/// intrusions, and compound attacks all appear.
util::Digest chaos_cell(Corpus corpus, const scada::Configuration& config,
                        std::uint64_t seed) {
  const DesOptions options = core::chaos_des_options();
  const double window_to =
      std::max(10.0 + 1.0,
               options.horizon_s - options.settle_window_s - 60.0);
  std::vector<int> nodes_per_site;
  for (const scada::ControlSite& site : config.sites) {
    nodes_per_site.push_back(site.replicas);
  }
  BenignPlanShape benign_shape;
  benign_shape.window_to_s = window_to;
  RestartPlanShape restart_shape;
  restart_shape.window_to_s =
      std::max(restart_shape.window_from_s + 1.0, window_to);
  const auto scenarios = threat::all_scenarios();

  const ScadaDes des(config, options);
  DesArena arena;
  util::Digest cell;
  const util::Rng base_rng(seed, "chaos");
  for (int p = 0; p < kPlansPerCell; ++p) {
    util::Rng plan_rng = base_rng.child("plan", static_cast<std::uint64_t>(p));
    const FaultPlan plan =
        corpus == Corpus::kRestartHeavy
            ? random_restart_plan(restart_shape, nodes_per_site, plan_rng)
            : random_benign_plan(benign_shape, nodes_per_site, plan_rng);
    const threat::ThreatScenario scenario =
        scenarios[static_cast<std::size_t>(p) % scenarios.size()];
    fold(cell, des.run(attacked_state(config, scenario), plan, arena));
  }
  return cell;
}

/// One plan-less cell: every flood mask x scenario, in bench_des's order.
/// Adds the runs' trace lines to `trace_lines`.
util::Digest planless_cell(const scada::Configuration& config,
                           const DesOptions& options,
                           std::size_t& trace_lines) {
  const ScadaDes des(config, options);
  const threat::GreedyWorstCaseAttacker attacker;
  const std::size_t n = config.sites.size();
  DesArena arena;
  util::Digest cell;
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    threat::SystemState base;
    base.intrusions.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      base.site_status.push_back((mask >> i) & 1 ? threat::SiteStatus::kFlooded
                                                 : threat::SiteStatus::kUp);
    }
    for (const threat::ThreatScenario scenario : threat::all_scenarios()) {
      const DesOutcome outcome = des.run(
          attacker.attack(config, base, threat::capability_for(scenario)),
          arena);
      trace_lines += outcome.trace.size();
      fold(cell, outcome);
    }
  }
  return cell;
}

/// A named cell whose digest `run` computes.
struct Cell {
  std::string name;
  std::function<util::Digest()> run;
};

/// Computes the cells on a TaskPool — each owns its engine and arena, so
/// they are independent — then checks them against kGolden in order.
void check_cells(const std::vector<Cell>& cells) {
  std::vector<util::Digest> digests(cells.size());
  runtime::TaskPool pool;
  pool.parallel_for_each(cells.size(), 1,
                         [&](std::size_t i) { digests[i] = cells[i].run(); });
  for (std::size_t i = 0; i < cells.size(); ++i) {
    golden::expect_golden(kGolden, cells[i].name, digests[i]);
  }
}

void check_chaos_corpus(Corpus corpus, std::string_view prefix) {
  std::vector<Cell> cells;
  for (const scada::Configuration& config : configs()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      cells.push_back({std::string(prefix) + "/" + config.name + "/seed" +
                           std::to_string(seed),
                       [corpus, &config, seed] {
                         return chaos_cell(corpus, config, seed);
                       }});
    }
  }
  check_cells(cells);
}

TEST(DesFastPath, BenignChaosCorpusMatchesGolden) {
  check_chaos_corpus(Corpus::kBenign, "benign");
}

TEST(DesFastPath, RestartHeavyChaosCorpusMatchesGolden) {
  check_chaos_corpus(Corpus::kRestartHeavy, "restart");
}

TEST(DesFastPath, PlanlessA4CorpusMatchesGolden) {
  std::vector<Cell> cells;
  for (const scada::Configuration& config : configs()) {
    cells.push_back({"a4/" + config.name, [&config] {
                       std::size_t trace_lines = 0;
                       return planless_cell(config, core::a4_des_options(),
                                            trace_lines);
                     }});
  }
  check_cells(cells);
}

TEST(DesFastPath, PlanlessTracedCorpusMatchesGolden) {
  DesOptions options = core::chaos_des_options();
  options.tracing = true;
  std::vector<std::size_t> trace_lines(configs().size(), 0);
  std::vector<Cell> cells;
  for (std::size_t i = 0; i < configs().size(); ++i) {
    cells.push_back({"traced/" + configs()[i].name, [&, i] {
                       return planless_cell(configs()[i], options,
                                            trace_lines[i]);
                     }});
  }
  check_cells(cells);
  for (std::size_t i = 0; i < configs().size(); ++i) {
    EXPECT_GT(trace_lines[i], 0u) << configs()[i].name;
  }
}

/// Changes exactly one DesOutcome field.
struct Mutation {
  std::string_view field;
  void (*apply)(DesOutcome&);
};

double next_up(double v) {
  return std::nextafter(v, std::numeric_limits<double>::infinity());
}

// One entry per compared field (vector fields twice: an element's content
// and the length). A field dropped from the predicate or the digest fails
// below; a field added to DesOutcome needs an entry here.
constexpr Mutation kComparedFields[] = {
    {"observed",
     [](DesOutcome& o) {
       o.observed = o.observed == threat::OperationalState::kRed
                        ? threat::OperationalState::kGray
                        : threat::OperationalState::kRed;
     }},
    {"safety_violated", [](DesOutcome& o) { o.safety_violated ^= true; }},
    {"max_outage_s",
     [](DesOutcome& o) { o.max_outage_s = next_up(o.max_outage_s); }},
    {"steady_availability",
     [](DesOutcome& o) {
       o.steady_availability = next_up(o.steady_availability);
     }},
    {"events", [](DesOutcome& o) { ++o.events; }},
    {"messages", [](DesOutcome& o) { ++o.messages; }},
    {"truncated", [](DesOutcome& o) { o.truncated ^= true; }},
    {"drops.loss", [](DesOutcome& o) { ++o.drops.loss; }},
    {"drops.site_down", [](DesOutcome& o) { ++o.drops.site_down; }},
    {"drops.isolation", [](DesOutcome& o) { ++o.drops.isolation; }},
    {"drops.link_down", [](DesOutcome& o) { ++o.drops.link_down; }},
    {"drops.crashed", [](DesOutcome& o) { ++o.drops.crashed; }},
    {"drops.in_flight", [](DesOutcome& o) { ++o.drops.in_flight; }},
    {"drops.transfer_loss", [](DesOutcome& o) { ++o.drops.transfer_loss; }},
    {"duplicates", [](DesOutcome& o) { ++o.duplicates; }},
    {"invariant_violations content",
     [](DesOutcome& o) { o.invariant_violations.back() += "!"; }},
    {"invariant_violations length",
     [](DesOutcome& o) { o.invariant_violations.emplace_back(); }},
    {"availability_timeline content",
     [](DesOutcome& o) {
       o.availability_timeline.back() = next_up(o.availability_timeline.back());
     }},
    {"availability_timeline length",
     [](DesOutcome& o) { o.availability_timeline.push_back(-1.0); }},
    {"trace content", [](DesOutcome& o) { o.trace.back() += "!"; }},
    {"trace length", [](DesOutcome& o) { o.trace.emplace_back(); }},
    {"rejoins", [](DesOutcome& o) { ++o.rejoins; }},
    {"rejoin_failures", [](DesOutcome& o) { ++o.rejoin_failures; }},
    {"transfer_retry_rounds", [](DesOutcome& o) { ++o.transfer_retry_rounds; }},
    {"max_catchup_s",
     [](DesOutcome& o) { o.max_catchup_s = next_up(o.max_catchup_s); }},
    {"passive_replicas", [](DesOutcome& o) { ++o.passive_replicas; }},
    {"stable_checkpoints", [](DesOutcome& o) { ++o.stable_checkpoints; }},
};

constexpr Mutation kMeasurementFields[] = {
    {"sim_wall_ms", [](DesOutcome& o) { o.sim_wall_ms += 1.0; }},
    {"events_per_second", [](DesOutcome& o) { o.events_per_second += 1.0; }},
};

// Every compared field, and only those, reaches both the predicate and the
// digest — so the goldens above pin exactly what bit-identity means.
TEST(DesFastPath, DigestCoversExactlyTheComparedFields) {
  DesOptions options = core::chaos_des_options();
  options.tracing = true;
  const scada::Configuration& config = configs().back();  // 6+6+6
  DesOutcome base = ScadaDes(config, options)
                        .run(attacked_state(
                            config,
                            threat::ThreatScenario::kHurricaneIntrusionIsolation));
  ASSERT_FALSE(base.trace.empty());
  ASSERT_FALSE(base.availability_timeline.empty());
  // A clean run reports no violations; seed one so its content is covered.
  base.invariant_violations.push_back("seeded violation");
  const auto base_digest = des_outcome_digest(base).value();

  for (const Mutation& m : kComparedFields) {
    DesOutcome mutated = base;
    m.apply(mutated);
    EXPECT_FALSE(des_outcomes_identical(base, mutated)) << m.field;
    EXPECT_NE(des_outcome_digest(mutated).value(), base_digest) << m.field;
  }
  for (const Mutation& m : kMeasurementFields) {
    DesOutcome mutated = base;
    m.apply(mutated);
    EXPECT_TRUE(des_outcomes_identical(base, mutated)) << m.field;
    EXPECT_EQ(des_outcome_digest(mutated).value(), base_digest) << m.field;
  }
}

// The zero-allocation steady state: once the arena is warmed by one run,
// re-running recycles every event slot and message slot — no slab growth,
// no pool misses, and no EventFn heap-fallback constructions.
TEST(DesFastPath, WarmArenaRunsAllocationFree) {
  const sim::DesOptions options = core::chaos_des_options();
  for (const auto& config : configs()) {
    const ScadaDes des(config, options);
    const threat::SystemState attacked = attacked_state(
        config, threat::ThreatScenario::kHurricaneIntrusionIsolation);

    DesArena arena;
    const DesOutcome cold = des.run(attacked, arena);  // warms the pools
    const std::uint64_t heap_before = EventFn::heap_allocations();
    const DesOutcome warm = des.run(attacked, arena);
    EXPECT_TRUE(des_outcomes_identical(cold, warm)) << config.name;

    const Simulator::PoolStats sim_stats = arena.simulator_stats();
    const Network::PoolStats net_stats = arena.network_stats();
    EXPECT_EQ(sim_stats.slab_grows, 0u) << config.name;
    EXPECT_EQ(net_stats.pool_misses, 0u) << config.name;
    EXPECT_EQ(EventFn::heap_allocations() - heap_before, 0u) << config.name;
    EXPECT_GT(net_stats.pool_hits, 0u) << config.name;
  }
}

// Arena reuse across *different* plans (the chaos-sweep pattern) must
// still be observably identical to fresh construction per run.
TEST(DesFastPath, ArenaReuseMatchesFreshConstruction) {
  const sim::DesOptions options = core::chaos_des_options();
  const scada::Configuration& config = configs().back();  // largest: 6+6+6
  const ScadaDes des(config, options);
  std::vector<int> nodes_per_site;
  for (const scada::ControlSite& site : config.sites) {
    nodes_per_site.push_back(site.replicas);
  }

  BenignPlanShape shape;
  shape.window_to_s = std::max(
      shape.window_from_s + 1.0,
      options.horizon_s - options.settle_window_s - 60.0);
  const util::Rng base_rng(7, "chaos");
  DesArena arena;
  for (int p = 0; p < 3; ++p) {
    util::Rng plan_rng =
        base_rng.child("plan", static_cast<std::uint64_t>(p));
    const FaultPlan plan =
        random_benign_plan(shape, nodes_per_site, plan_rng);
    const threat::SystemState attacked = attacked_state(
        config, threat::ThreatScenario::kHurricaneIntrusionIsolation);
    const DesOutcome pooled = des.run(attacked, plan, arena);
    const DesOutcome fresh = des.run(attacked, plan);
    EXPECT_TRUE(des_outcomes_identical(pooled, fresh)) << "plan " << p;
  }
}

}  // namespace
}  // namespace ct::sim
