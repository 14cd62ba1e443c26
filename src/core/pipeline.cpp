#include "core/pipeline.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "core/evaluator.h"
#include "obs/trace.h"
#include "util/csv.h"
#include "util/digest.h"
#include "util/log.h"
#include "util/strings.h"

namespace ct::core {

namespace {

bool parse_u64(std::string_view s, std::uint64_t& out) {
  s = util::trim(s);
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, out);
  return ec == std::errc{} && ptr == end && !s.empty();
}

bool parse_double(std::string_view s, double& out) {
  s = util::trim(s);
  if (s.empty()) return false;
  // std::from_chars<double> is not universally available; strtod on a
  // bounded copy keeps this portable.
  std::string copy(s);
  char* end = nullptr;
  out = std::strtod(copy.c_str(), &end);
  return end == copy.c_str() + copy.size();
}

/// EnsembleReport -> ScenarioResult (histogram + quarantine accounting).
ScenarioResult result_from_report(const scada::Configuration& config,
                                  threat::ThreatScenario scenario,
                                  runtime::EnsembleReport report) {
  ScenarioResult result;
  result.config_name = config.name;
  result.scenario = scenario;
  for (std::size_t i = 0; i < report.counts.counts.size(); ++i) {
    result.outcomes.add(static_cast<threat::OperationalState>(i),
                        static_cast<std::size_t>(report.counts.counts[i]));
  }
  result.from_cache = report.counts.from_cache;
  result.failures = std::move(report.failures);
  result.retries = report.retries;
  result.attempted = report.attempted;
  result.completed = report.completed;
  return result;
}

}  // namespace

util::Interval ScenarioResult::mass_bound(threat::OperationalState s,
                                          double confidence) const noexcept {
  // Rebuild the runtime report so both layers share ONE bound formula. A
  // result that never went through the guarded path (serial analyze) has
  // attempted == 0; treat it as a clean full run.
  runtime::EnsembleReport report;
  for (std::size_t i = 0; i < report.counts.counts.size(); ++i) {
    report.counts.counts[i] = static_cast<std::uint64_t>(
        outcomes.count(static_cast<threat::OperationalState>(i)));
  }
  report.counts.total = outcomes.total();
  report.attempted = attempted == 0 ? outcomes.total() : attempted;
  report.completed = attempted == 0 ? outcomes.total() : completed;
  return report.mass_bound(static_cast<std::size_t>(s), confidence);
}

void OutcomeDistribution::add(threat::OperationalState s) noexcept {
  ++counts_[static_cast<std::size_t>(s)];
  ++total_;
}

void OutcomeDistribution::add(threat::OperationalState s,
                              std::size_t n) noexcept {
  counts_[static_cast<std::size_t>(s)] += n;
  total_ += n;
}

std::size_t OutcomeDistribution::count(threat::OperationalState s) const noexcept {
  return counts_[static_cast<std::size_t>(s)];
}

double OutcomeDistribution::probability(threat::OperationalState s) const noexcept {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count(s)) / static_cast<double>(total_);
}

double OutcomeDistribution::expected_badness() const noexcept {
  if (total_ == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    sum += static_cast<double>(i) * static_cast<double>(counts_[i]);
  }
  return sum / static_cast<double>(total_);
}

threat::OperationalState AnalysisPipeline::outcome_for(
    const scada::Configuration& config, threat::ThreatScenario scenario,
    const surge::HurricaneRealization& realization) const {
  // Stage 1 (Fig. 5): apply the natural-disaster impact.
  const threat::SystemState post_disaster = threat::post_disaster_state(
      config, [&realization](std::string_view asset_id) {
        return realization.asset_failed(std::string(asset_id));
      });

  // Stage 2: apply the worst-case cyberattack for the scenario.
  const threat::AttackerCapability capability =
      threat::capability_for(scenario);
  threat::SystemState final_state = post_disaster;
  if (model_ == AttackerModel::kGreedy) {
    final_state = threat::GreedyWorstCaseAttacker{}.attack(
        config, post_disaster, capability);
  } else {
    threat::ExhaustiveAttacker exhaustive(
        [&config](const threat::SystemState& s) { return evaluate(config, s); });
    final_state = exhaustive.attack(config, post_disaster, capability);
  }

  // Stage 3: evaluate the final system state (Table I).
  return evaluate(config, final_state);
}

ScenarioResult AnalysisPipeline::analyze(
    const scada::Configuration& config, threat::ThreatScenario scenario,
    const std::vector<surge::HurricaneRealization>& realizations) const {
  obs::Span span("pipeline.analyze");
  ScenarioResult result;
  result.config_name = config.name;
  result.scenario = scenario;
  for (const surge::HurricaneRealization& r : realizations) {
    result.outcomes.add(outcome_for(config, scenario, r));
  }
  return result;
}

std::string_view AnalysisPipeline::attacker_tag() const noexcept {
  return model_ == AttackerModel::kGreedy ? "greedy" : "exhaustive";
}

ResumableAnalysis AnalysisPipeline::analyze_resumable(
    const std::vector<SweepCell>& cells,
    const runtime::EnsembleRunner::EngineFn& engine, std::size_t count,
    runtime::EnsembleRunner& runtime, std::string_view realization_set_digest,
    const runtime::CheckpointOptions& ckpt,
    runtime::CancellationToken* interrupt) const {
  obs::Span span("pipeline.analyze_resumable");
  // One fused sweep over every cell, one series per cell, keyed by its
  // job key. The journal digest binds the engine batch AND the attacker,
  // so a checkpoint taken under different knobs can never resume.
  runtime::SweepSpec spec;
  {
    util::Digest d;
    d.str("ct-sweep").str(realization_set_digest).str(attacker_tag());
    spec.digest = d.hex();
  }
  spec.count = count;
  spec.series.reserve(cells.size());
  for (const SweepCell& cell : cells) {
    spec.series.push_back(runtime::EnsembleRunner::job_key(
        *cell.config, cell.scenario, attacker_tag(), realization_set_digest));
  }

  runtime::ResumableReport report = runtime.run_resumable(
      engine, spec,
      [&](std::size_t series, const surge::HurricaneRealization& r) {
        const SweepCell& cell = cells[series];
        return static_cast<int>(outcome_for(*cell.config, cell.scenario, r));
      },
      ckpt, interrupt);

  ResumableAnalysis out;
  out.resume = report.resume;
  out.interrupted = report.interrupted;
  out.restored = report.restored;
  out.executed = report.executed;
  out.checkpoints = report.checkpoints;
  out.results.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (report.series[i].counts.from_cache) ++out.cached_cells;
    out.results.push_back(result_from_report(*cells[i].config,
                                             cells[i].scenario,
                                             std::move(report.series[i])));
  }
  return out;
}

std::vector<ScenarioResult> ResumableAnalysis::row(std::size_t s,
                                                   std::size_t width) const {
  const auto begin = results.begin() + static_cast<std::ptrdiff_t>(s * width);
  return {begin, begin + static_cast<std::ptrdiff_t>(width)};
}

LoadedRealizations load_realizations_csv(std::istream& in,
                                         std::string_view source_name) {
  LoadedRealizations out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;

    std::vector<std::string> fields;
    std::string why;
    try {
      fields = util::parse_csv_line(trimmed);
    } catch (const std::invalid_argument& e) {
      why = e.what();
    }
    if (why.empty() && !fields.empty() && fields[0] == "realization") {
      continue;  // header row
    }
    surge::HurricaneRealization r;
    if (why.empty() && fields.size() != 4) {
      why = "expected 4 fields, got " + std::to_string(fields.size());
    }
    if (why.empty() && !parse_u64(fields[0], r.index)) {
      why = "bad realization index '" + fields[0] + "'";
    }
    if (why.empty() && !parse_double(fields[2], r.peak_wind_ms)) {
      why = "bad peak_wind_ms '" + fields[2] + "'";
    }
    if (why.empty() && !parse_double(fields[3], r.max_shoreline_wse_m)) {
      why = "bad max_wse_m '" + fields[3] + "'";
    }
    // A NaN/Inf that slips in here would survive every downstream guard
    // (the engine validates only what IT computes), so the boundary where
    // the value enters the process is where it must be rejected.
    if (why.empty() && !std::isfinite(r.peak_wind_ms)) {
      why = "non-finite peak_wind_ms '" + fields[2] + "'";
    }
    if (why.empty() && !std::isfinite(r.max_shoreline_wse_m)) {
      why = "non-finite max_wse_m '" + fields[3] + "'";
    }
    if (!why.empty()) {
      ++out.skipped_rows;
      out.errors.emplace_back(util::ErrorCode::kParse, "realizations-csv",
                              std::string(source_name) + ":" +
                                  std::to_string(line_no) + ": " + why);
      CT_LOG(kWarn, "pipeline") << "skipping malformed realization row: "
                                << out.errors.back().message();
      continue;
    }
    for (const std::string& asset : util::split(fields[1], ';')) {
      const std::string_view id = util::trim(asset);
      if (id.empty()) continue;
      surge::AssetImpact impact;
      impact.asset_id = std::string(id);
      impact.failed = true;
      r.impacts.push_back(std::move(impact));
    }
    out.realizations.push_back(std::move(r));
  }
  return out;
}

void write_realizations_csv(
    std::ostream& out,
    const std::vector<surge::HurricaneRealization>& realizations) {
  util::CsvWriter writer(out);
  writer.header({"realization", "flooded_assets", "peak_wind_ms", "max_wse_m"});
  for (const surge::HurricaneRealization& r : realizations) {
    std::vector<std::string> flooded;
    for (const surge::AssetImpact& impact : r.impacts) {
      if (impact.failed) flooded.push_back(impact.asset_id);
    }
    writer.field(static_cast<std::size_t>(r.index))
        .field(util::join(flooded, ";"))
        .field(r.peak_wind_ms)
        .field(r.max_shoreline_wse_m);
    writer.end_row();
  }
}

}  // namespace ct::core
