// chaos-sweep: ChaosRunner::sweep_all over the five paper configurations
// with benign and restart-heavy fault plans on an EnsembleRunner, plus the
// f+1 compromise probe per configuration. Runs the protocol DES only; the
// surge pipeline is never touched.
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "core/chaos.h"
#include "obs/trace.h"
#include "runtime/ensemble_runner.h"
#include "scada/configuration.h"
#include "workloads.h"

namespace ctbench {

namespace {

namespace runtime = ct::runtime;
using Clock = std::chrono::steady_clock;

/// Seeded plans per configuration and plan style.
constexpr int kPlans = 20;
/// Serial (jobs=1) sweeps per run; the parallel side repeats more.
constexpr std::size_t kSerialReps = 4;

struct Rig {
  std::unique_ptr<runtime::EnsembleRunner> runtime;
  std::unique_ptr<core::ChaosRunner> benign;
  std::unique_ptr<core::ChaosRunner> restart;
};

Rig build_rig(const Context& ctx, unsigned jobs) {
  runtime::EnsembleOptions options;
  options.jobs = jobs;
  options.cache = false;
  options.fault_spec = "none";
  core::ChaosOptions benign;
  benign.plans = kPlans;
  benign.base_seed = ctx.seed;
  core::ChaosOptions restart = benign;
  restart.plan_style = core::ChaosOptions::PlanStyle::kRestartHeavy;
  Rig rig;
  rig.runtime = std::make_unique<runtime::EnsembleRunner>(options);
  rig.benign = std::make_unique<core::ChaosRunner>(benign);
  rig.restart = std::make_unique<core::ChaosRunner>(restart);
  return rig;
}

/// One line per report and probe with the fields that must not depend on
/// the worker count.
using Outcome = std::vector<std::string>;

Outcome sweep(Rig& rig, Sheet& sheet,
              const std::vector<ct::scada::Configuration>& configs) {
  Outcome outcome;
  const auto record = [&](const core::ChaosReport& r, const char* style) {
    sheet.gate(r.ok(), std::string(style) + " chaos sweep of " +
                           r.config_name + " has findings or plan failures");
    sheet.attempt(static_cast<std::uint64_t>(r.runs),
                  r.findings.size() + r.plan_failures.size());
    outcome.push_back(
        std::string(style) + " " + r.config_name + " plans=" +
        std::to_string(r.plans_run) + " runs=" + std::to_string(r.runs) +
        " drops=" + std::to_string(r.total_drops) +
        " dups=" + std::to_string(r.total_duplicates) +
        " rejoins=" + std::to_string(r.total_rejoins));
  };
  {
    obs::Span span("bench.chaos.benign");
    for (const auto& r : rig.benign->sweep_all(configs, *rig.runtime)) {
      record(r, "benign");
    }
  }
  {
    obs::Span span("bench.chaos.restart_heavy");
    for (const auto& r : rig.restart->sweep_all(configs, *rig.runtime)) {
      record(r, "restart-heavy");
    }
  }
  for (const auto& config : configs) {
    obs::Span span("bench.chaos.probe");
    const core::ChaosFinding f = rig.benign->compromise_probe(config);
    const bool detected = f.observed != f.expected;
    sheet.gate(detected, "compromise probe missed on " + config.name);
    sheet.attempt(1, detected ? 0 : 1);
    outcome.push_back("probe " + config.name + " events=" +
                           std::to_string(f.minimal_plan.events.size()));
  }
  return outcome;
}

}  // namespace

void run_chaos_sweep(const Context& ctx, Sheet& sheet) {
  if (ctx.trace) obs::set_trace_enabled(true);
  const auto configs =
      ct::scada::paper_configurations("primary", "backup", "dc");

  // Set-up of a rig: build the runtime and the chaos runners, then warm
  // the workers' DES arenas with two plans per style. The serial rig is
  // warmed untimed; three jobs=nproc rigs give the set-up samples and the
  // first of them runs the parallel passes.
  const auto warm = [&](Rig& rig) {
    for (const core::ChaosRunner* runner :
         {rig.benign.get(), rig.restart.get()}) {
      core::ChaosOptions small = runner->options();
      small.plans = 2;
      core::ChaosRunner(small).sweep_all(configs, *rig.runtime);
    }
  };
  std::vector<Rig> rigs;
  rigs.push_back(build_rig(ctx, 1));
  warm(rigs[0]);
  std::vector<double> setup;
  for (int k = 0; k < 3; ++k) {
    const auto start = Clock::now();
    Rig rig = build_rig(ctx, ctx.nproc);
    warm(rig);
    setup.push_back(seconds_since(start));
    if (k == 0) rigs.push_back(std::move(rig));
  }

  // Serial and parallel sweeps interleave (S P P S P P ..., then P until
  // the measuring time is used up). The first serial pass is the reference
  // every other pass must reproduce and gives the exact per-pass counts.
  MetricsDelta serial_delta;
  MetricsDelta all_delta;
  std::vector<double> serial_s;
  std::vector<double> parallel_s;
  Outcome reference;
  double measured = 0.0;
  while (serial_s.size() < kSerialReps || parallel_s.size() < 6 ||
         (measured < ctx.seconds && parallel_s.size() < 30)) {
    const bool serial_turn = serial_s.size() < kSerialReps &&
                             parallel_s.size() >= 2 * serial_s.size();
    const auto start = Clock::now();
    const Outcome out = sweep(rigs[serial_turn ? 0 : 1], sheet, configs);
    const double s = seconds_since(start);
    if (reference.empty()) {
      serial_delta.stop();
      reference = out;
    }
    sheet.gate(out == reference,
               "jobs=1 and jobs=" + std::to_string(ctx.nproc) +
                   " chaos reports differ");
    (serial_turn ? serial_s : parallel_s).push_back(s);
    measured += s;
  }
  all_delta.stop();
  for (const std::string& row : reference) sheet.note("  " + row);

  const double sweep_s = median(parallel_s);
  const double sweep_serial_s = median(serial_s);
  sheet.set("setup_s", median(setup), "s");
  sheet.set("sweep_s", sweep_s, "s");
  sheet.set("sweep_serial_s", sweep_serial_s, "s");
  sheet.set("parallel_efficiency", sweep_serial_s / (ctx.nproc * sweep_s),
            "ratio");
  sheet.note("chaos sweeps: " + std::to_string(serial_s.size()) +
             " at jobs=1, " + std::to_string(parallel_s.size()) + " at jobs=" +
             std::to_string(ctx.nproc));

  sheet.set("sim.runs", serial_delta.counter("des.runs"), "count");
  sheet.set("sim.events", serial_delta.counter("des.events"), "count");
  sheet.set("sim.messages", serial_delta.counter("des.messages"), "count");
  sheet.set("sim.slab_grows", serial_delta.counter("des.pool.slab_grows"),
            "count");
  sheet.set("sim.msg_pool_misses",
            serial_delta.counter("des.pool.msg_misses"), "count");
  // Throughput over every pass (serial and parallel DES runs alike).
  const double wall_s = all_delta.counter("des.wall_us") / 1e6;
  sheet.set("sim.events_per_s",
            wall_s > 0 ? all_delta.counter("des.events") / wall_s : 0.0,
            "1/s");
  sheet.set("sim.run_us", all_delta.hist_mean("des.run_us"), "us");
  if (ctx.trace) obs::set_trace_enabled(false);
}

}  // namespace ctbench
