// Crash-consistency tests for the sweep checkpoint layer (PR 7):
//
//  * SweepProgress range algebra (merge, coalesce, overlap, missing);
//  * journal round-trips, torn-tail drop and republish on resume,
//    interior-corruption detection, stale-digest and old-format refusal,
//    tmp-file GC, durable-write metrics;
//  * run_resumable equivalence with the guarded paths, interrupt + resume
//    bit-identity across --jobs, resume under CT_FAULT (quarantined
//    indices must not be re-counted), knob-change cold start;
//  * the self-exec crash matrix: a child process is killed by CT_CRASH at
//    EVERY checkpoint site (before / torn / after) of the cold run and then
//    of the resumed run, relaunched with resume, and must reproduce the
//    uninterrupted run exactly.
//
// This binary supplies its own main(): when invoked with --crash-child it
// runs the harness workload instead of gtest (the child is this same
// executable re-exec'd via /proc/self/exe).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/report.h"
#include "obs/metrics.h"
#include "runtime/checkpoint.h"
#include "runtime/ensemble_runner.h"
#include "runtime/fault_profile.h"
#include "scada/oahu.h"
#include "surge/realization.h"
#include "terrain/oahu.h"
#include "util/error.h"
#include "util/fsio.h"

namespace ct {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 20220627;

surge::RealizationEngine make_engine(std::uint64_t seed = kSeed) {
  surge::RealizationConfig config;
  config.base_seed = seed;
  return surge::RealizationEngine(terrain::make_oahu_terrain(),
                                  scada::oahu_topology().exposed_assets(),
                                  config);
}

/// Cheap deterministic 2-series classifier shared by the in-process tests
/// and the crash-harness child (pure function of the realization).
int classify(std::size_t series, const surge::HurricaneRealization& r) {
  if (series == 0) {
    std::size_t flooded = 0;
    for (const surge::AssetImpact& impact : r.impacts) {
      if (impact.failed) ++flooded;
    }
    return static_cast<int>(flooded % 4);
  }
  if (r.peak_wind_ms > 45.0) return 3;
  if (r.peak_wind_ms > 35.0) return 2;
  if (r.peak_wind_ms > 25.0) return 1;
  return 0;
}

runtime::EnsembleOptions make_options(unsigned jobs,
                                      const std::string& fault = "none") {
  runtime::EnsembleOptions options;
  options.jobs = jobs;
  options.chunk = 7;  // ragged chunking: exercises the merge order
  options.cache = false;
  options.fault_spec = fault;  // "none", not "": ignore ambient CT_FAULT
  return options;
}

runtime::CheckpointOptions make_ckpt(const std::string& dir,
                                     std::size_t interval = 8) {
  runtime::CheckpointOptions ckpt;
  ckpt.dir = dir;
  ckpt.interval = interval;
  ckpt.crash_spec = "none";  // in-process tests must never _exit
  return ckpt;
}

/// Scratch directory per test, wiped on construction.
std::string scratch_dir(const std::string& name) {
  const std::string dir =
      (fs::temp_directory_path() / ("ct-checkpoint-test-" + name)).string();
  fs::remove_all(dir);
  return dir;
}

runtime::SweepSpec unit_spec(std::string digest = "unit-digest") {
  runtime::SweepSpec spec;
  spec.digest = std::move(digest);
  spec.count = 100;
  spec.series = {"series-a", "series-b"};
  return spec;
}

/// Fabricates the deterministic delta of slice [begin, end) and folds it
/// into `progress` the way run_resumable does.
std::vector<runtime::SeriesCounts> fold_slice(runtime::SweepProgress& progress,
                                              std::uint64_t begin,
                                              std::uint64_t end) {
  std::vector<runtime::SeriesCounts> delta(2, runtime::SeriesCounts{});
  for (std::uint64_t i = begin; i < end; ++i) {
    ++delta[0][i % 4];
    ++delta[1][(i / 2) % 4];
  }
  EXPECT_TRUE(progress.merge_range(begin, end));
  for (std::size_t s = 0; s < 2; ++s) {
    for (std::size_t c = 0; c < 4; ++c) progress.series[s][c] += delta[s][c];
  }
  return delta;
}

void expect_progress_eq(const runtime::SweepProgress& a,
                        const runtime::SweepProgress& b) {
  EXPECT_EQ(a.done, b.done);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t s = 0; s < a.series.size(); ++s) {
    EXPECT_EQ(a.series[s], b.series[s]) << "series " << s;
  }
  ASSERT_EQ(a.failures.size(), b.failures.size());
  for (std::size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(a.failures[i].realization, b.failures[i].realization);
    EXPECT_EQ(a.failures[i].seed, b.failures[i].seed);
    EXPECT_EQ(a.failures[i].attempts, b.failures[i].attempts);
    EXPECT_EQ(a.failures[i].code, b.failures[i].code);
    EXPECT_EQ(a.failures[i].origin, b.failures[i].origin);
    EXPECT_EQ(a.failures[i].message, b.failures[i].message);
  }
  EXPECT_EQ(a.retries, b.retries);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
}

// --- SweepProgress ----------------------------------------------------------

TEST(SweepProgressTest, MergeCoalesceOverlapAndMissing) {
  runtime::SweepProgress p;
  p.series.assign(1, runtime::SeriesCounts{});
  EXPECT_TRUE(p.merge_range(0, 10));
  EXPECT_TRUE(p.merge_range(20, 30));
  EXPECT_EQ(p.done.size(), 2u);
  // Touching ranges coalesce (consecutive slices), from either side.
  EXPECT_TRUE(p.merge_range(10, 15));
  EXPECT_EQ(p.done.size(), 2u);
  EXPECT_EQ(p.done[0], (std::pair<std::uint64_t, std::uint64_t>{0, 15}));
  EXPECT_TRUE(p.merge_range(15, 20));  // bridges both neighbors
  EXPECT_EQ(p.done.size(), 1u);
  EXPECT_EQ(p.done[0], (std::pair<std::uint64_t, std::uint64_t>{0, 30}));
  EXPECT_EQ(p.completed(), 30u);
  // Overlap is refused with the state unchanged.
  EXPECT_FALSE(p.merge_range(29, 31));
  EXPECT_FALSE(p.merge_range(0, 1));
  EXPECT_FALSE(p.merge_range(5, 5));  // empty
  EXPECT_EQ(p.done.size(), 1u);
  // The complement drives resume scheduling.
  EXPECT_TRUE(p.merge_range(40, 50));
  const auto missing = p.missing(60);
  ASSERT_EQ(missing.size(), 2u);
  EXPECT_EQ(missing[0], (std::pair<std::uint64_t, std::uint64_t>{30, 40}));
  EXPECT_EQ(missing[1], (std::pair<std::uint64_t, std::uint64_t>{50, 60}));
  EXPECT_TRUE(runtime::SweepProgress{}.missing(0).empty());
}

// --- CrashProfile grammar ---------------------------------------------------

TEST(CrashProfileTest, ParseGrammar) {
  EXPECT_FALSE(runtime::CrashProfile::parse("").enabled());
  EXPECT_FALSE(runtime::CrashProfile::parse("none").enabled());
  EXPECT_FALSE(runtime::CrashProfile::parse("off").enabled());
  const runtime::CrashProfile torn = runtime::CrashProfile::parse("torn:at=3");
  EXPECT_TRUE(torn.enabled());
  EXPECT_EQ(torn.point, runtime::CrashPoint::kTornWrite);
  EXPECT_EQ(torn.at, 3u);
  EXPECT_TRUE(torn.fires(runtime::CrashPoint::kTornWrite, 3));
  EXPECT_FALSE(torn.fires(runtime::CrashPoint::kTornWrite, 2));
  EXPECT_FALSE(torn.fires(runtime::CrashPoint::kBeforeWrite, 3));
  EXPECT_EQ(runtime::CrashProfile::parse("before:at=1").point,
            runtime::CrashPoint::kBeforeWrite);
  EXPECT_EQ(runtime::CrashProfile::parse("after:at=9").point,
            runtime::CrashPoint::kAfterWrite);
  EXPECT_THROW(runtime::CrashProfile::parse("explode:at=1"), util::Error);
  EXPECT_THROW(runtime::CrashProfile::parse("torn"), util::Error);
  EXPECT_THROW(runtime::CrashProfile::parse("torn:at=0"), util::Error);
  EXPECT_THROW(runtime::CrashProfile::parse("torn:every=3"), util::Error);
}

// --- journal unit tests -----------------------------------------------------

TEST(SweepJournalTest, RoundTripRestoresEverything) {
  const std::string dir = scratch_dir("roundtrip");
  const runtime::SweepSpec spec = unit_spec();
  runtime::SweepProgress p;
  p.series.assign(2, runtime::SeriesCounts{});
  {
    runtime::SweepJournal j(make_ckpt(dir, 10), spec);
    ASSERT_TRUE(j.begin());
    for (const auto& [b, e] : {std::pair<std::uint64_t, std::uint64_t>{0, 10},
                               {10, 20},
                               {20, 30}}) {
      const auto delta = fold_slice(p, b, e);
      // Slice 2 carries a quarantine record with hostile content: the
      // framing must survive newlines, spaces and percent signs.
      std::vector<runtime::FailureRecord> failures;
      if (b == 10) {
        runtime::FailureRecord f;
        f.realization = 13;
        f.seed = kSeed;
        f.attempts = 3;
        f.code = util::ErrorCode::kFaultInjected;
        f.origin = "fault injection";
        f.message = "bad\nmessage with spaces and 100% chaos";
        failures.push_back(f);
        p.failures.push_back(std::move(f));
        p.retries += 2;
      }
      ASSERT_TRUE(j.append(b, e, delta, failures, b == 10 ? 2 : 0));
    }
    j.close();  // interrupted, not finished: files stay
  }
  runtime::SweepJournal j2(make_ckpt(dir, 10), spec);
  runtime::SweepProgress restored;
  const runtime::ResumeInfo info = j2.load(restored);
  EXPECT_EQ(info.status, runtime::ResumeStatus::kResumed);
  EXPECT_EQ(info.restored, 30u);
  EXPECT_FALSE(info.torn_tail_dropped);
  expect_progress_eq(restored, p);
}

TEST(SweepJournalTest, TornTailIsDroppedSilently) {
  const std::string dir = scratch_dir("torn");
  const runtime::SweepSpec spec = unit_spec();
  runtime::SweepProgress p;
  p.series.assign(2, runtime::SeriesCounts{});
  std::string journal_path;
  {
    runtime::SweepJournal j(make_ckpt(dir, 10), spec);
    ASSERT_TRUE(j.begin());
    for (std::uint64_t b = 0; b < 30; b += 10) {
      ASSERT_TRUE(j.append(b, b + 10, fold_slice(p, b, b + 10), {}, 0));
    }
    journal_path = j.journal_path();
  }
  // Chop the final record mid-checksum: the only shape a crash can leave.
  std::string contents = read_file(journal_path);
  ASSERT_GT(contents.size(), 10u);
  contents.resize(contents.size() - 10);
  write_file(journal_path, contents);

  runtime::SweepJournal j2(make_ckpt(dir, 10), spec);
  runtime::SweepProgress restored;
  const runtime::ResumeInfo info = j2.load(restored);
  EXPECT_EQ(info.status, runtime::ResumeStatus::kResumed);
  EXPECT_TRUE(info.torn_tail_dropped);
  EXPECT_EQ(info.restored, 20u);  // records 1-2 kept, torn record 3 dropped
  ASSERT_EQ(restored.done.size(), 1u);
  EXPECT_EQ(restored.done[0],
            (std::pair<std::uint64_t, std::uint64_t>{0, 20}));
}

TEST(SweepJournalTest, InteriorBitFlipIsTypedCorruptionAndColdStarts) {
  const std::string dir = scratch_dir("bitflip");
  const runtime::SweepSpec spec = unit_spec();
  runtime::SweepProgress p;
  p.series.assign(2, runtime::SeriesCounts{});
  std::string journal_path;
  {
    runtime::SweepJournal j(make_ckpt(dir, 10), spec);
    ASSERT_TRUE(j.begin());
    for (std::uint64_t b = 0; b < 30; b += 10) {
      ASSERT_TRUE(j.append(b, b + 10, fold_slice(p, b, b + 10), {}, 0));
    }
    journal_path = j.journal_path();
  }
  // Flip one digit inside the FIRST record's counts line. Complete valid
  // records follow, so this cannot be a torn tail — it must be reported
  // as corruption (kCheckpointCorrupt), not silently replayed or dropped.
  std::string contents = read_file(journal_path);
  const std::size_t k = contents.find("\nK ");
  ASSERT_NE(k, std::string::npos);
  const std::size_t digit = contents.find_first_of("0123456789", k + 1);
  ASSERT_NE(digit, std::string::npos);
  contents[digit] = contents[digit] == '9' ? '8' : '9';
  write_file(journal_path, contents);

  runtime::SweepJournal j2(make_ckpt(dir, 10), spec);
  runtime::SweepProgress restored;
  const runtime::ResumeInfo info = j2.load(restored);
  EXPECT_EQ(info.status, runtime::ResumeStatus::kCorrupt);
  EXPECT_NE(info.detail.find("checkpoint-corrupt"), std::string::npos)
      << info.detail;
  EXPECT_EQ(info.restored, 0u);  // cold start: nothing salvaged
  EXPECT_EQ(restored.completed(), 0u);
}

TEST(SweepJournalTest, DifferentDigestOrSeriesIsStaleNotCorrupt) {
  const std::string dir = scratch_dir("stale");
  runtime::SweepProgress p;
  p.series.assign(2, runtime::SeriesCounts{});
  {
    runtime::SweepJournal j(make_ckpt(dir), unit_spec("digest-one"));
    ASSERT_TRUE(j.begin());
    ASSERT_TRUE(j.append(0, 10, fold_slice(p, 0, 10), {}, 0));
  }
  {
    // Same directory, different sweep digest (changed knobs).
    runtime::SweepJournal j(make_ckpt(dir), unit_spec("digest-two"));
    runtime::SweepProgress restored;
    // Different digest => different file name => plain cold start.
    EXPECT_EQ(j.load(restored).status, runtime::ResumeStatus::kColdStart);
  }
  {
    // Same digest but a different series set: the header refuses it.
    runtime::SweepSpec spec = unit_spec("digest-one");
    spec.series = {"series-a", "series-CHANGED"};
    runtime::SweepJournal j(make_ckpt(dir), spec);
    runtime::SweepProgress restored;
    const runtime::ResumeInfo info = j.load(restored);
    EXPECT_EQ(info.status, runtime::ResumeStatus::kStale);
    EXPECT_EQ(restored.completed(), 0u);
  }
}

TEST(SweepJournalTest, ResumeAfterTornTailRepublishesAndAppends) {
  const std::string dir = scratch_dir("torn-resume");
  const runtime::SweepSpec spec = unit_spec();
  std::string journal_path;
  {
    runtime::SweepProgress p;
    p.series.assign(2, runtime::SeriesCounts{});
    runtime::SweepJournal j(make_ckpt(dir, 10), spec);
    ASSERT_TRUE(j.begin());
    for (std::uint64_t b = 0; b < 30; b += 10) {
      ASSERT_TRUE(j.append(b, b + 10, fold_slice(p, b, b + 10), {}, 0));
    }
    journal_path = j.journal_path();
  }
  std::string contents = read_file(journal_path);
  contents.resize(contents.size() - 10);  // tear record 3
  write_file(journal_path, contents);

  // Resume: records 1-2 survive; begin() republishes them without the torn
  // bytes, so the new records land after checked ones only.
  runtime::SweepProgress p;
  {
    runtime::SweepJournal j(make_ckpt(dir, 10), spec);
    const runtime::ResumeInfo info = j.load(p);
    ASSERT_EQ(info.status, runtime::ResumeStatus::kResumed);
    ASSERT_TRUE(info.torn_tail_dropped);
    ASSERT_EQ(info.restored, 20u);
    ASSERT_TRUE(j.begin());
    for (std::uint64_t b = 20; b < 50; b += 10) {
      ASSERT_TRUE(j.append(b, b + 10, fold_slice(p, b, b + 10), {}, 0));
    }
    EXPECT_EQ(j.writes(), 4u);  // the republish + 3 records
  }

  runtime::SweepJournal j2(make_ckpt(dir, 10), spec);
  runtime::SweepProgress restored;
  const runtime::ResumeInfo info = j2.load(restored);
  EXPECT_EQ(info.status, runtime::ResumeStatus::kResumed);
  EXPECT_FALSE(info.torn_tail_dropped);
  EXPECT_EQ(info.restored, 50u);
  expect_progress_eq(restored, p);
}

TEST(SweepJournalTest, OlderFormatVersionIsStaleNotCorrupt) {
  const std::string dir = scratch_dir("old-format");
  const runtime::SweepSpec spec = unit_spec();
  runtime::SweepJournal j(make_ckpt(dir, 10), spec);
  fs::create_directories(dir);
  // A version-1 header had a fifth field (the snapshot epoch); its shape
  // must not matter once the version token says it is another format.
  write_file(j.journal_path(),
             "ctjournal 1 100 2 0\nD unit-digest\nS series-a\nS series-b\n"
             "H 0123456789abcdef\n");
  runtime::SweepProgress restored;
  const runtime::ResumeInfo info = j.load(restored);
  EXPECT_EQ(info.status, runtime::ResumeStatus::kStale) << info.detail;
  EXPECT_EQ(restored.completed(), 0u);
}

TEST(SweepJournalTest, HalfWrittenJournalTmpIsIgnoredAndCollected) {
  const std::string dir = scratch_dir("jrnltmp");
  const runtime::SweepSpec spec = unit_spec();
  runtime::SweepProgress p;
  p.series.assign(2, runtime::SeriesCounts{});
  std::string journal_path;
  {
    runtime::SweepJournal j(make_ckpt(dir, 10), spec);
    ASSERT_TRUE(j.begin());
    ASSERT_TRUE(j.append(0, 10, fold_slice(p, 0, 10), {}, 0));
    journal_path = j.journal_path();
  }
  // A crash mid-republish leaves a half-written tmp that never renamed.
  write_file(journal_path + ".tmp", "ctjournal 2 100 2\nD unit-dig");

  runtime::SweepJournal j2(make_ckpt(dir, 10), spec);
  runtime::SweepProgress restored;
  const runtime::ResumeInfo info = j2.load(restored);
  EXPECT_EQ(info.status, runtime::ResumeStatus::kResumed);
  EXPECT_EQ(info.restored, 10u);
  EXPECT_FALSE(fs::exists(journal_path + ".tmp"));  // GC'd
}

TEST(SweepJournalTest, MetricsCountEveryDurableWrite) {
  if (!obs::enabled()) GTEST_SKIP() << "metrics collection is off";
  const auto counter = [](const char* name) {
    const obs::MetricsSnapshot snapshot = obs::capture_metrics();
    const obs::MetricValue* m = snapshot.find(name);
    return m != nullptr ? m->value : std::uint64_t{0};
  };
  const std::string dir = scratch_dir("metrics");
  const std::uint64_t flushes_before = counter("checkpoint.flushes");
  const std::uint64_t bytes_before = counter("checkpoint.journal_bytes");
  runtime::SweepProgress p;
  p.series.assign(2, runtime::SeriesCounts{});
  runtime::SweepJournal j(make_ckpt(dir, 10), unit_spec());
  ASSERT_TRUE(j.begin());
  for (std::uint64_t b = 0; b < 40; b += 10) {
    ASSERT_TRUE(j.append(b, b + 10, fold_slice(p, b, b + 10), {}, 0));
  }
  EXPECT_EQ(j.writes(), 5u);  // header + 4 records
  EXPECT_EQ(counter("checkpoint.flushes") - flushes_before, j.writes());
  EXPECT_EQ(counter("checkpoint.journal_bytes") - bytes_before,
            fs::file_size(j.journal_path()));
}

// --- run_resumable ----------------------------------------------------------

constexpr std::size_t kSweepCount = 40;

runtime::SweepSpec sweep_spec(std::string digest = "sweep-digest") {
  runtime::SweepSpec spec;
  spec.digest = std::move(digest);
  spec.count = kSweepCount;
  spec.series = {"cell-a", "cell-b"};
  return spec;
}

std::vector<unsigned> job_counts() {
  std::vector<unsigned> jobs = {1, 2, 8};
  if (const char* env = std::getenv("CT_TEST_JOBS")) {
    const unsigned long n = std::strtoul(env, nullptr, 10);
    if (n > 0) jobs.push_back(static_cast<unsigned>(n));
  }
  return jobs;
}

TEST(RunResumableTest, ColdRunMatchesGuardedCountsAtAnyJobs) {
  const surge::RealizationEngine engine = make_engine();
  // Reference: the guarded batch, each series folded serially.
  runtime::EnsembleRunner reference_runner(make_options(1));
  const runtime::GeneratedBatch batch =
      reference_runner.generate_guarded(engine, kSweepCount);
  ASSERT_TRUE(batch.complete());
  std::vector<runtime::SeriesCounts> reference(2, runtime::SeriesCounts{});
  for (std::size_t s = 0; s < 2; ++s) {
    for (const surge::HurricaneRealization& r : batch.realizations) {
      ++reference[s][static_cast<std::size_t>(classify(s, r))];
    }
  }

  for (const unsigned jobs : job_counts()) {
    runtime::EnsembleRunner runner(make_options(jobs));
    // No checkpoint dir: plain fused sweep.
    const runtime::ResumableReport report = runner.run_resumable(
        runtime::fixed_engine(engine), sweep_spec(), classify, runtime::CheckpointOptions{});
    ASSERT_EQ(report.series.size(), 2u);
    EXPECT_FALSE(report.interrupted);
    EXPECT_EQ(report.executed, kSweepCount);
    EXPECT_EQ(report.checkpoints, 0u);
    for (std::size_t s = 0; s < 2; ++s) {
      EXPECT_EQ(report.series[s].counts.counts, reference[s])
          << "jobs=" << jobs << " series=" << s;
      EXPECT_EQ(report.series[s].counts.total, kSweepCount);
      EXPECT_TRUE(report.series[s].failures.empty());
    }
  }
}

TEST(RunResumableTest, InterruptAndResumeIsBitIdenticalAcrossJobs) {
  const surge::RealizationEngine engine = make_engine();
  runtime::EnsembleRunner cold_runner(make_options(1));
  const runtime::ResumableReport reference = cold_runner.run_resumable(
      runtime::fixed_engine(engine), sweep_spec(), classify, runtime::CheckpointOptions{});

  for (const unsigned jobs : job_counts()) {
    const std::string dir =
        scratch_dir("interrupt-jobs" + std::to_string(jobs));
    const runtime::CheckpointOptions ckpt = make_ckpt(dir, 8);

    // Phase 1: cancel once realization 20 is seen. Cancellation is only
    // honored at slice boundaries, so the active slice completes and is
    // flushed — deterministically 24 of 40 indices at interval 8.
    runtime::CancellationToken interrupt;
    runtime::EnsembleRunner partial_runner(make_options(jobs));
    const runtime::ResumableReport partial = partial_runner.run_resumable(
        runtime::fixed_engine(engine), sweep_spec(),
        [&](std::size_t series, const surge::HurricaneRealization& r) {
          if (r.index >= 20) interrupt.request_cancel();
          return classify(series, r);
        },
        ckpt, &interrupt);
    ASSERT_TRUE(partial.interrupted) << "jobs=" << jobs;
    EXPECT_LT(partial.executed, kSweepCount);
    EXPECT_GE(partial.executed, 21u);

    // Phase 2: resume (possibly at a different jobs value) and finish.
    runtime::CheckpointOptions resume_ckpt = ckpt;
    resume_ckpt.resume = true;
    runtime::EnsembleRunner resume_runner(make_options(jobs == 1 ? 8 : 1));
    const runtime::ResumableReport resumed = resume_runner.run_resumable(
        runtime::fixed_engine(engine), sweep_spec(), classify, resume_ckpt);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.resume.status, runtime::ResumeStatus::kResumed);
    EXPECT_GT(resumed.restored, 0u);
    EXPECT_EQ(resumed.restored + resumed.executed, kSweepCount);
    for (std::size_t s = 0; s < 2; ++s) {
      EXPECT_EQ(resumed.series[s].counts.counts,
                reference.series[s].counts.counts)
          << "jobs=" << jobs << " series=" << s;
      EXPECT_EQ(resumed.series[s].attempted, kSweepCount);
    }
    // The sweep completed: the checkpoint files are gone.
    EXPECT_FALSE(fs::exists(dir) && !fs::is_empty(dir));
  }
}

TEST(RunResumableTest, ResumeUnderFaultDoesNotRecountQuarantined) {
  // throw:every=7 quarantines indices 0, 7, 14, 21, 28, 35 on every
  // attempt. The resumed run must end with exactly that ledger — a
  // restored quarantined index must be neither re-run nor double-counted.
  const std::string fault = "throw:every=7";
  const surge::RealizationEngine engine = make_engine();
  runtime::EnsembleRunner clean_runner(make_options(2, fault));
  const runtime::ResumableReport reference = clean_runner.run_resumable(
      runtime::fixed_engine(engine), sweep_spec(), classify, runtime::CheckpointOptions{});
  ASSERT_EQ(reference.series[0].failures.size(), 6u);

  const std::string dir = scratch_dir("fault-resume");
  const runtime::CheckpointOptions ckpt = make_ckpt(dir, 8);
  runtime::CancellationToken interrupt;
  runtime::EnsembleRunner partial_runner(make_options(2, fault));
  const runtime::ResumableReport partial = partial_runner.run_resumable(
      runtime::fixed_engine(engine), sweep_spec(),
      [&](std::size_t series, const surge::HurricaneRealization& r) {
        if (r.index >= 20) interrupt.request_cancel();
        return classify(series, r);
      },
      ckpt, &interrupt);
  ASSERT_TRUE(partial.interrupted);

  runtime::CheckpointOptions resume_ckpt = ckpt;
  resume_ckpt.resume = true;
  runtime::EnsembleRunner resume_runner(make_options(2, fault));
  const runtime::ResumableReport resumed = resume_runner.run_resumable(
      runtime::fixed_engine(engine), sweep_spec(), classify, resume_ckpt);
  EXPECT_EQ(resumed.resume.status, runtime::ResumeStatus::kResumed);
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(resumed.series[s].counts.counts,
              reference.series[s].counts.counts);
    ASSERT_EQ(resumed.series[s].failures.size(),
              reference.series[s].failures.size());
    for (std::size_t f = 0; f < resumed.series[s].failures.size(); ++f) {
      EXPECT_EQ(resumed.series[s].failures[f].realization,
                reference.series[s].failures[f].realization);
      EXPECT_EQ(resumed.series[s].failures[f].code,
                reference.series[s].failures[f].code);
    }
    EXPECT_EQ(resumed.series[s].completed, kSweepCount - 6);
  }
}

TEST(RunResumableTest, ChangedKnobsColdStartLoudly) {
  const surge::RealizationEngine engine = make_engine();
  const std::string dir = scratch_dir("knobs");
  const runtime::CheckpointOptions ckpt = make_ckpt(dir, 8);

  runtime::CancellationToken interrupt;
  runtime::EnsembleRunner partial_runner(make_options(2));
  const runtime::ResumableReport partial = partial_runner.run_resumable(
      runtime::fixed_engine(engine), sweep_spec("knobs-v1"),
      [&](std::size_t series, const surge::HurricaneRealization& r) {
        if (r.index >= 20) interrupt.request_cancel();
        return classify(series, r);
      },
      ckpt, &interrupt);
  ASSERT_TRUE(partial.interrupted);

  // Same checkpoint dir, different sweep digest (e.g. a changed
  // RealizationConfig knob): the stale state must not resume. A different
  // digest also means a different file pair, so this surfaces as a plain
  // cold start and the sweep recomputes everything.
  runtime::CheckpointOptions resume_ckpt = ckpt;
  resume_ckpt.resume = true;
  runtime::EnsembleRunner resume_runner(make_options(2));
  const runtime::ResumableReport resumed = resume_runner.run_resumable(
      runtime::fixed_engine(engine), sweep_spec("knobs-v2"), classify, resume_ckpt);
  EXPECT_EQ(resumed.resume.status, runtime::ResumeStatus::kColdStart);
  EXPECT_EQ(resumed.restored, 0u);
  EXPECT_EQ(resumed.executed, kSweepCount);
  EXPECT_FALSE(resumed.interrupted);
}

TEST(SweepExitCodeTest, InterruptedSweepsExitFive) {
  core::ResumableAnalysis analysis;
  analysis.results.resize(1);
  EXPECT_EQ(core::sweep_exit_code(analysis, false), 0);
  EXPECT_EQ(core::sweep_exit_code(analysis, true), 0);
  analysis.interrupted = true;
  EXPECT_EQ(core::sweep_exit_code(analysis, false), 5);
  EXPECT_EQ(core::sweep_exit_code(analysis, true), 5);
  analysis.interrupted = false;
  analysis.results[0].failures.push_back({});
  analysis.results[0].attempted = 10;
  analysis.results[0].completed = 9;
  EXPECT_EQ(core::sweep_exit_code(analysis, false), 0);  // best-effort
  EXPECT_EQ(core::sweep_exit_code(analysis, true), 3);   // strict
}

// --- self-exec crash matrix -------------------------------------------------
//
// The parent spawns THIS binary with --crash-child and a CT_CRASH spec,
// which kills the child at one exact checkpoint site; the parent then
// relaunches it with resume and compares the result file with an
// uninterrupted reference. Iterating at=1,2,... until a child finishes
// without crashing proves EVERY site of a cold sweep is recoverable; for
// each cold crash, the resumed run is killed the same way at each of its
// own sites, which proves the resume path's durable writes are too.

constexpr std::size_t kChildCount = 20;
constexpr std::size_t kChildInterval = 5;
/// Child exit code when its resume found a corrupt checkpoint: a crash
/// alone must never produce corruption, only a torn tail.
constexpr int kCorruptExitCode = 9;

/// Runs one child: /proc/self/exe --crash-child ... with CT_CRASH set to
/// `crash_spec` (empty = unset). Returns the child's exit code.
int spawn_child(const std::string& dir, const std::string& result_path,
                unsigned jobs, const std::string& fault,
                const std::string& crash_spec) {
  if (crash_spec.empty()) {
    ::unsetenv("CT_CRASH");
  } else {
    ::setenv("CT_CRASH", crash_spec.c_str(), 1);
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::vector<std::string> args = {
        "/proc/self/exe", "--crash-child",     "--dir",  dir,
        "--result",       result_path,         "--jobs", std::to_string(jobs),
        "--fault",        fault};
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv("/proc/self/exe", argv.data());
    ::_exit(127);
  }
  ::unsetenv("CT_CRASH");
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

/// The text the child writes on completion; also computable in-process
/// for the reference (same engine, same classifier, same fault profile).
std::string result_text(const runtime::ResumableReport& report) {
  std::ostringstream out;
  for (const runtime::EnsembleReport& series : report.series) {
    out << "counts";
    for (const std::uint64_t c : series.counts.counts) out << ' ' << c;
    out << '\n';
  }
  out << "failures";
  for (const runtime::FailureRecord& f : report.series.empty()
                                             ? std::vector<runtime::FailureRecord>{}
                                             : report.series[0].failures) {
    out << ' ' << f.realization;
  }
  out << "\nattempted "
      << (report.series.empty() ? 0 : report.series[0].attempted) << '\n';
  return out.str();
}

runtime::SweepSpec child_spec() {
  runtime::SweepSpec spec;
  spec.digest = "crash-harness-sweep";
  spec.count = kChildCount;
  spec.series = {"series-a", "series-b"};
  return spec;
}

std::string reference_text(unsigned jobs, const std::string& fault) {
  runtime::EnsembleRunner runner(make_options(jobs, fault));
  const surge::RealizationEngine engine = make_engine();
  const runtime::ResumableReport report =
      runner.run_resumable(runtime::fixed_engine(engine), child_spec(),
                           classify, runtime::CheckpointOptions{});
  return result_text(report);
}

void run_crash_matrix(unsigned jobs, const std::string& fault) {
  const std::string expected = reference_text(jobs, fault);
  const std::string dir = scratch_dir("crash-matrix-j" + std::to_string(jobs) +
                                      (fault == "none" ? "" : "-fault"));
  const std::string saved = dir + "-saved";
  const std::string result_path = dir + "/result.txt";
  const auto crash_spec = [](const char* kind, std::uint64_t at) {
    return std::string(kind) + ":at=" + std::to_string(at);
  };
  for (const char* kind : {"before", "torn", "after"}) {
    std::size_t crashes = 0;
    bool ran_past_last_site = false;
    for (std::uint64_t at = 1; at <= 64 && !ran_past_last_site; ++at) {
      fs::remove_all(dir);
      fs::create_directories(dir);
      const std::string where = std::string(kind) + " at=" + std::to_string(at);
      const int rc = spawn_child(dir, result_path, jobs, fault,
                                 crash_spec(kind, at));
      if (rc == 0) {
        // `at` is beyond the last site of a cold run: matrix exhausted.
        ran_past_last_site = true;
        EXPECT_EQ(read_file(result_path), expected) << kind << " clean";
        continue;
      }
      ASSERT_EQ(rc, runtime::CrashProfile::kExitCode)
          << "unexpected child exit (" << where << ")";
      ++crashes;
      // Killed at cold site `at`. Now kill the resumed run at each of ITS
      // sites in turn (the republish, then every append), always starting
      // from the state the cold crash left; the run that outlives its last
      // site is the plain resume. Every path must reproduce the
      // uninterrupted run exactly (histograms AND quarantine ledger).
      fs::remove_all(saved);
      fs::copy(dir, saved, fs::copy_options::recursive);
      bool resumed_to_end = false;
      for (std::uint64_t at2 = 1; at2 <= 64 && !resumed_to_end; ++at2) {
        fs::remove_all(dir);
        fs::copy(saved, dir, fs::copy_options::recursive);
        const std::string where2 = where + " then at=" + std::to_string(at2);
        const int rc2 = spawn_child(dir, result_path, jobs, fault,
                                    crash_spec(kind, at2));
        if (rc2 == runtime::CrashProfile::kExitCode) {
          const int resumed = spawn_child(dir, result_path, jobs, fault, "");
          ASSERT_EQ(resumed, 0) << where2;
        } else {
          ASSERT_EQ(rc2, 0) << "unexpected child exit (" << where2 << ")";
          resumed_to_end = true;
        }
        EXPECT_EQ(read_file(result_path), expected) << where2;
      }
      EXPECT_TRUE(resumed_to_end) << where << ": >64 resumed crash sites?";
    }
    EXPECT_TRUE(ran_past_last_site) << kind << ": >64 crash sites?";
    EXPECT_GE(crashes, 5u) << kind;  // the matrix actually exercised sites
  }
  fs::remove_all(dir);
  fs::remove_all(saved);
}

TEST(CrashMatrixTest, EveryCrashSiteIsRecoverableAtJobs1) {
  run_crash_matrix(1, "none");
}

TEST(CrashMatrixTest, EveryCrashSiteIsRecoverableAtJobs8) {
  run_crash_matrix(8, "none");
}

TEST(CrashMatrixTest, QuarantineLedgerSurvivesCrashAndResume) {
  run_crash_matrix(2, "throw:every=7");
}

}  // namespace
}  // namespace ct

/// Crash-harness child entry: runs the checkpointed sweep (CT_CRASH from
/// the environment decides where it dies) and writes the result file on
/// completion. Exit codes: 0 complete, 86 injected crash (via _exit), 9
/// resumed from a corrupt checkpoint, 1 error.
static int run_crash_child(int argc, char** argv) {
  using namespace ct;
  try {
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; ++i) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) == 0 && key != "--crash-child") {
        args[key.substr(2)] = argv[i + 1];
      }
    }
    const unsigned jobs = static_cast<unsigned>(
        std::strtoul(args["jobs"].c_str(), nullptr, 10));
    runtime::EnsembleOptions options;
    options.jobs = jobs == 0 ? 1 : jobs;
    options.chunk = 7;
    options.cache = false;
    options.fault_spec = args.count("fault") ? args["fault"] : "none";
    runtime::EnsembleRunner runner(options);

    runtime::CheckpointOptions ckpt;
    ckpt.dir = args["dir"];
    ckpt.interval = kChildInterval;
    ckpt.resume = true;         // cold on a fresh dir, warm after a crash
    ckpt.crash_spec = "";       // defer to CT_CRASH (set by the parent)

    const surge::RealizationEngine engine = make_engine();
    const runtime::ResumableReport report = runner.run_resumable(
        runtime::fixed_engine(engine), child_spec(), classify, ckpt);
    if (report.interrupted) return 7;
    if (report.resume.status == runtime::ResumeStatus::kCorrupt) {
      return kCorruptExitCode;
    }
    util::atomic_write_file(args["result"], result_text(report));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "crash-child: %s\n", e.what());
    return 1;
  }
}

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--crash-child") {
      return run_crash_child(argc, argv);
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
