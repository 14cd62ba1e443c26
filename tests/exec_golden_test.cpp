// Golden digests of the downtime and siting reports, plus the identity of
// site-scoped realization batches with the full batch.
//
// downtime and siting classify only the control sites their configurations
// place, so they generate from an engine scoped to those sites: downtime
// reads its batch (CaseStudyRunner::realizations(sites)), siting sweeps
// candidates x scenarios once (CaseStudyRunner::run). The goldens pin each
// report byte for byte, with its exit code, at the paper seed over 1000
// realizations, as the full-batch implementation printed them. On an intended change,
// copy the digest the failure prints into kGolden and record the change in
// CHANGES.md.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/case_study.h"
#include "golden.h"
#include "scada/configuration.h"
#include "scada/oahu.h"
#include "service/exec.h"
#include "util/digest.h"

namespace ct {
namespace {

using golden::Golden;

constexpr Golden kGolden[] = {
    {"downtime/default", "252ae22f7a46a2aed73d75c71ff8b222"},
    {"downtime/waiau-kahe-alohanap", "11c45d273d7cc7cbeb7156cd5a6a8f11"},
    {"siting/default", "03cf6ecd5ccad914968989d9e2695e9f"},
    {"siting/waiau", "d264e5d40c01d2dbf07ea122576811a5"},
    {"downtime/throw-every-17", "088d2db649276caa4c7b85465d18fc4e"},
    {"siting/throw-every-17", "1c72f7ff6d4a062196110e72cfc28d43"},
};

struct Cell {
  const char* name;
  service::RequestKind kind;
  const char* primary;
  const char* backup;
  const char* dc;
  const char* fault_spec;
};

constexpr Cell kCells[] = {
    {"downtime/default", service::RequestKind::kDowntime, "", "", "", "none"},
    {"downtime/waiau-kahe-alohanap", service::RequestKind::kDowntime,
     scada::oahu_ids::kWaiauCc, scada::oahu_ids::kKaheCc,
     scada::oahu_ids::kAlohaNap, "none"},
    {"siting/default", service::RequestKind::kSiting, "", "", "", "none"},
    {"siting/waiau", service::RequestKind::kSiting, scada::oahu_ids::kWaiauCc,
     "", "", "none"},
    {"downtime/throw-every-17", service::RequestKind::kDowntime, "", "", "",
     "throw:every=17"},
    {"siting/throw-every-17", service::RequestKind::kSiting, "", "", "",
     "throw:every=17"},
};

service::Request request_for(const Cell& cell) {
  service::Request request;
  request.kind = cell.kind;
  request.primary = cell.primary;
  request.backup = cell.backup;
  request.dc = cell.dc;
  return request;
}

std::unique_ptr<core::CaseStudyRunner> runner_for(const Cell& cell) {
  core::CaseStudyOptions defaults;
  defaults.runtime.fault_spec = cell.fault_spec;
  return service::make_case_study(request_for(cell), defaults, nullptr);
}

TEST(ExecGolden, DowntimeAndSitingReportsMatchGoldenDigests) {
  for (const Cell& cell : kCells) {
    const service::ExecOutcome out =
        service::execute_request(request_for(cell), *runner_for(cell));
    util::Digest d;
    d.str(out.output).i64(out.exit_code);
    golden::expect_golden(kGolden, cell.name, d);
  }
}

/// Every site a scoped batch holds equals the full batch's impact there,
/// bit for bit, for the scopes downtime and siting read.
TEST(ExecGolden, ScopedBatchesMatchTheFullBatchOnEverySite) {
  core::CaseStudyOptions options;
  options.runtime.fault_spec = "none";
  core::CaseStudyRunner runner = core::make_oahu_case_study(options);
  const std::vector<surge::HurricaneRealization>& full = runner.realizations();
  ASSERT_EQ(full.size(), options.realizations);

  std::vector<std::vector<std::string>> scopes = {
      core::site_union(scada::paper_configurations(
          scada::oahu_ids::kHonoluluCc, scada::oahu_ids::kWaiauCc,
          scada::oahu_ids::kDrFortress)),
      scada::oahu_control_site_candidates()};
  for (const std::string& site : scada::oahu_control_site_candidates()) {
    scopes.push_back({site});
  }
  std::size_t flooded = 0;
  for (const std::vector<std::string>& sites : scopes) {
    const std::vector<surge::HurricaneRealization>& scoped =
        runner.realizations(sites);
    ASSERT_EQ(scoped.size(), full.size());
    for (std::size_t i = 0; i < full.size(); ++i) {
      ASSERT_EQ(scoped[i].index, full[i].index);
      ASSERT_EQ(scoped[i].impacts.size(), sites.size());
      for (const std::string& site : sites) {
        const bool failed = scoped[i].asset_failed(site);
        EXPECT_EQ(failed, full[i].asset_failed(site)) << site << " #" << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(scoped[i].asset_depth(site)),
                  std::bit_cast<std::uint64_t>(full[i].asset_depth(site)))
            << site << " #" << i;
        flooded += failed;
      }
    }
  }
  EXPECT_GT(flooded, 0u) << "the ensemble must flood some site";
}

/// downtime reads a scoped batch under a fault profile: its "(generation)"
/// rows list exactly the quarantines of the full batch.
TEST(ExecGolden, DowntimeGenerationRowsMatchTheFullBatchLedgerUnderFaults) {
  const Cell& cell = kCells[4];
  ASSERT_EQ(std::string(cell.name), "downtime/throw-every-17");
  const std::unique_ptr<core::CaseStudyRunner> runner = runner_for(cell);
  const service::ExecOutcome out =
      service::execute_request(request_for(cell), *runner);

  runner->realizations();
  const runtime::FailureLedger& full = runner->generation_failures();
  ASSERT_FALSE(full.failures.empty());
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.quarantined, full.failures.size());
  EXPECT_EQ(out.retries, full.retries);
  // The failure table right-aligns its columns; collapse the padding.
  std::string text = out.output;
  text.erase(std::unique(text.begin(), text.end(),
                         [](char a, char b) { return a == ' ' && b == ' '; }),
             text.end());
  for (const runtime::FailureRecord& failure : full.failures) {
    EXPECT_EQ(failure.realization % 17, 0u);
    EXPECT_NE(text.find("| (generation) | " +
                        std::to_string(failure.realization) + " |"),
              std::string::npos)
        << "realization " << failure.realization;
  }
}

}  // namespace
}  // namespace ct
