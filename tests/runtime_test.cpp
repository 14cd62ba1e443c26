// Unit tests for the ensemble runtime's building blocks: the work-stealing
// TaskPool (coverage + determinism + exception propagation), the typed
// content digest, and the two-layer ResultStore (LRU, disk round-trip,
// corruption tolerance, version invalidation).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/fault_profile.h"
#include "runtime/result_store.h"
#include "runtime/task_pool.h"
#include "util/digest.h"
#include "util/error.h"

namespace ct {
namespace {

namespace fs = std::filesystem;

// --- TaskPool ---------------------------------------------------------------

TEST(TaskPoolTest, EveryIndexRunsExactlyOnce) {
  for (const unsigned jobs : {0u, 1u, 4u, 8u}) {
    runtime::TaskPool pool(jobs);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> seen(kN);
    pool.parallel_for_each(kN, 7, [&](std::size_t i) { seen[i]++; });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(seen[i].load(), 1) << "index " << i << " jobs " << jobs;
    }
  }
}

TEST(TaskPoolTest, InlinePoolSpawnsNoWorkers) {
  runtime::TaskPool pool(1);
  EXPECT_EQ(pool.worker_count(), 0u);
  EXPECT_EQ(pool.parallelism(), 1u);
}

TEST(TaskPoolTest, HandlesEmptyAndOversizedChunks) {
  runtime::TaskPool pool(4);
  int calls = 0;
  pool.parallel_for_each(0, 16, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);

  std::atomic<int> count{0};
  pool.parallel_for_each(5, 1000, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 5);

  // chunk == 0 must not divide by zero; it is treated as 1.
  count = 0;
  pool.parallel_for_ranges(3, 0, [&](std::size_t b, std::size_t e) {
    count += static_cast<int>(e - b);
  });
  EXPECT_EQ(count.load(), 3);
}

TEST(TaskPoolTest, FirstExceptionPropagatesAndPoolSurvives) {
  runtime::TaskPool pool(4);
  EXPECT_THROW(pool.parallel_for_each(100, 3,
                                      [&](std::size_t i) {
                                        if (i == 37) {
                                          throw std::runtime_error("boom");
                                        }
                                      }),
               std::runtime_error);
  // The pool must stay usable after a failed batch.
  std::atomic<int> count{0};
  pool.parallel_for_each(50, 4, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 50);
}

TEST(TaskPoolTest, NestedParallelForDoesNotDeadlock) {
  runtime::TaskPool pool(2);
  std::atomic<int> inner_total{0};
  pool.parallel_for_each(4, 1, [&](std::size_t) {
    pool.parallel_for_each(25, 4, [&](std::size_t) { inner_total++; });
  });
  EXPECT_EQ(inner_total.load(), 100);
}

TEST(TaskPoolTest, SubmissionBeyondDequeCapacityCompletes) {
  runtime::TaskPool pool(2);
  const std::size_t n = runtime::TaskPool::kDequeCapacity * 4;
  std::atomic<std::size_t> count{0};
  pool.parallel_for_each(n, 1, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), n);
}

// --- CancellationToken ------------------------------------------------------

TEST(CancellationTokenTest, ExplicitCancelThrowsTypedError) {
  runtime::CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.has_deadline());
  EXPECT_NO_THROW(token.poll("test"));
  token.request_cancel();
  EXPECT_TRUE(token.cancelled());
  try {
    token.poll("test");
    FAIL() << "poll must throw after cancel";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCancelled);
    EXPECT_EQ(e.origin(), "test");
  }
}

TEST(CancellationTokenTest, DeadlineExpiryThrowsTimeout) {
  const runtime::CancellationToken token(std::chrono::milliseconds(1));
  EXPECT_TRUE(token.has_deadline());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(token.cancelled());
  try {
    token.poll("kernel");
    FAIL() << "poll must throw past the deadline";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kTimeout);
  }
}

TEST(CancellationTokenTest, ZeroTimeoutMeansNoDeadline) {
  const runtime::CancellationToken token(std::chrono::milliseconds(0));
  EXPECT_FALSE(token.has_deadline());
  EXPECT_FALSE(token.cancelled());
}

// --- for_each_isolated ------------------------------------------------------

TEST(IsolatedRunTest, FailuresAreContainedAndSortedAtAnyJobs) {
  for (const unsigned jobs : {1u, 4u, 8u}) {
    runtime::TaskPool pool(jobs);
    constexpr std::size_t kN = 200;
    std::vector<std::atomic<int>> runs(kN);
    const auto result = pool.for_each_isolated(
        kN, 7,
        [&](std::size_t i, unsigned, const runtime::CancellationToken&) {
          runs[i]++;
          if (i % 31 == 0) {
            throw Error(ErrorCode::kNumeric, "test", "deterministic boom");
          }
        });
    // Indices 0, 31, 62, ... fail; everything else ran exactly once.
    std::vector<std::size_t> expected_failures;
    for (std::size_t i = 0; i < kN; i += 31) expected_failures.push_back(i);
    ASSERT_EQ(result.failures.size(), expected_failures.size())
        << "jobs " << jobs;
    for (std::size_t f = 0; f < result.failures.size(); ++f) {
      EXPECT_EQ(result.failures[f].index, expected_failures[f]);
      EXPECT_EQ(result.failures[f].attempts, 1u);  // max_retries = 0
      EXPECT_EQ(util::classify_exception(result.failures[f].error),
                ErrorCode::kNumeric);
    }
    // max_retries = 0: every index — failing or not — ran exactly once.
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "index " << i;
    }
  }
}

TEST(IsolatedRunTest, RetryHealsTransientFailure) {
  runtime::TaskPool pool(4);
  constexpr std::size_t kN = 100;
  runtime::TaskOptions options;
  options.max_retries = 2;
  std::atomic<int> first_attempts{0};
  const auto result = pool.for_each_isolated(
      kN, 5,
      [&](std::size_t i, unsigned attempt,
          const runtime::CancellationToken&) {
        if (i % 10 == 3 && attempt == 1) {
          first_attempts++;
          throw std::runtime_error("transient");
        }
      },
      options);
  EXPECT_TRUE(result.failures.empty());
  EXPECT_EQ(first_attempts.load(), 10);  // indices 3, 13, ..., 93
  EXPECT_EQ(result.retries, 10u);        // one healing retry each
}

TEST(IsolatedRunTest, ExhaustedRetriesRecordAttemptCount) {
  runtime::TaskPool pool(2);
  runtime::TaskOptions options;
  options.max_retries = 3;
  const auto result = pool.for_each_isolated(
      10, 2,
      [&](std::size_t i, unsigned, const runtime::CancellationToken&) {
        if (i == 4) throw std::runtime_error("permanent");
      },
      options);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].index, 4u);
  EXPECT_EQ(result.failures[0].attempts, 4u);  // 1 + 3 retries
  EXPECT_EQ(result.retries, 3u);
}

TEST(IsolatedRunTest, WatchdogContainsHungTask) {
  runtime::TaskPool pool(2);
  runtime::TaskOptions options;
  options.timeout = std::chrono::milliseconds(20);
  std::atomic<int> completed{0};
  const auto result = pool.for_each_isolated(
      8, 1,
      [&](std::size_t i, unsigned, const runtime::CancellationToken& token) {
        if (i == 5) {
          // A cooperative "hung" kernel: loops until the watchdog fires.
          for (;;) {
            token.poll("hung-kernel");
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        completed++;
      },
      options);
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].index, 5u);
  EXPECT_EQ(util::classify_exception(result.failures[0].error),
            ErrorCode::kTimeout);
  EXPECT_EQ(completed.load(), 7);  // every other index still ran
}

// --- RuntimeFaultProfile ----------------------------------------------------

TEST(FaultProfileTest, ParsesDirectives) {
  const auto p = runtime::RuntimeFaultProfile::parse(
      "throw:every=20;nan:every=25,offset=3;delay:every=10,ms=50;cache-write");
  EXPECT_TRUE(p.any());
  EXPECT_EQ(p.throw_rule.every, 20u);
  EXPECT_EQ(p.nan_rule.every, 25u);
  EXPECT_EQ(p.nan_rule.offset, 3u);
  EXPECT_EQ(p.delay_rule.every, 10u);
  EXPECT_EQ(p.delay.count(), 50);
  EXPECT_TRUE(p.cache_write_failure);
}

TEST(FaultProfileTest, EmptyAndNoneAreOff) {
  EXPECT_FALSE(runtime::RuntimeFaultProfile::parse("").any());
  EXPECT_FALSE(runtime::RuntimeFaultProfile::parse("none").any());
  EXPECT_FALSE(runtime::RuntimeFaultProfile::parse("off").any());
}

TEST(FaultProfileTest, MalformedSpecIsLoud) {
  for (const char* bad : {"explode:every=3", "throw", "throw:every=0",
                          "throw:every=x", "throw:bogus=1"}) {
    try {
      runtime::RuntimeFaultProfile::parse(bad);
      FAIL() << "expected parse failure for: " << bad;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kParse) << bad;
    }
  }
}

TEST(FaultProfileTest, RuleFiringIsPureFunctionOfIndexAndAttempt) {
  runtime::FaultRule rule;
  rule.every = 5;
  rule.offset = 2;
  rule.attempts = 1;
  EXPECT_TRUE(rule.fires(2, 1));
  EXPECT_TRUE(rule.fires(7, 1));
  EXPECT_FALSE(rule.fires(3, 1));   // wrong residue
  EXPECT_FALSE(rule.fires(2, 2));   // retry heals: attempt 2 passes
  runtime::FaultRule off;
  EXPECT_FALSE(off.fires(0, 1));
}

// --- Digest -----------------------------------------------------------------

TEST(DigestTest, StableAndHexFormatted) {
  util::Digest a;
  a.str("hello").u64(42);
  util::Digest b;
  b.str("hello").u64(42);
  EXPECT_EQ(a.hex(), b.hex());
  EXPECT_EQ(a.hex().size(), 32u);
  for (const char c : a.hex()) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'));
  }
}

/// Length-prefixed typed framing: concatenation and type confusion must not
/// collide.
TEST(DigestTest, FramingDisambiguates) {
  util::Digest ab_c;
  ab_c.str("ab").str("c");
  util::Digest a_bc;
  a_bc.str("a").str("bc");
  EXPECT_NE(ab_c.hex(), a_bc.hex());

  util::Digest as_u64;
  as_u64.u64(7);
  util::Digest as_i64;
  as_i64.i64(7);
  util::Digest as_f64;
  as_f64.f64(7.0);
  EXPECT_NE(as_u64.hex(), as_i64.hex());
  EXPECT_NE(as_u64.hex(), as_f64.hex());
  EXPECT_NE(as_i64.hex(), as_f64.hex());

  util::Digest empty1;
  util::Digest with_empty;
  with_empty.str("");
  EXPECT_NE(empty1.hex(), with_empty.hex());
}

TEST(DigestTest, SensitiveToEveryInput) {
  util::Digest base;
  base.str("topology").u64(1000).f64(0.0).boolean(true);
  util::Digest flipped;
  flipped.str("topology").u64(1000).f64(0.0).boolean(false);
  EXPECT_NE(base.hex(), flipped.hex());
}

// --- ResultStore ------------------------------------------------------------

runtime::CachedCounts sample_counts() {
  runtime::CachedCounts c;
  c.counts = {700, 150, 100, 50};
  c.total = 1000;
  c.skipped = 2;
  return c;
}

std::string test_key(char fill = 'a') { return std::string(32, fill); }

TEST(ResultStoreTest, MemoryRoundTripAndStats) {
  runtime::ResultStore store;
  EXPECT_FALSE(store.lookup(test_key()).has_value());
  store.store(test_key(), sample_counts());
  const auto hit = store.lookup(test_key());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, sample_counts());
  const auto stats = store.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(ResultStoreTest, LruEvictsOldestEntry) {
  runtime::ResultStoreOptions options;
  options.memory_entries = 2;
  runtime::ResultStore store(options);
  store.store(test_key('a'), sample_counts());
  store.store(test_key('b'), sample_counts());
  // Touch 'a' so 'b' becomes the eviction victim.
  EXPECT_TRUE(store.lookup(test_key('a')).has_value());
  store.store(test_key('c'), sample_counts());
  EXPECT_TRUE(store.lookup(test_key('a')).has_value());
  EXPECT_FALSE(store.lookup(test_key('b')).has_value());
  EXPECT_TRUE(store.lookup(test_key('c')).has_value());
}

class DiskStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("ct_store_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    options_.disk = true;
    options_.disk_dir = dir_.string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Path of the single record under the cache dir (the record naming
  /// scheme is an implementation detail; tests find it by extension).
  fs::path record_path() {
    for (const auto& entry : fs::recursive_directory_iterator(dir_)) {
      if (entry.is_regular_file()) return entry.path();
    }
    return {};
  }

  fs::path dir_;
  runtime::ResultStoreOptions options_;
};

TEST_F(DiskStoreTest, SharedAcrossInstances) {
  {
    runtime::ResultStore writer(options_);
    writer.store(test_key(), sample_counts());
  }
  runtime::ResultStore reader(options_);
  const auto hit = reader.lookup(test_key());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, sample_counts());
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  // A disk hit is promoted to memory: the second lookup is a memory hit.
  EXPECT_TRUE(reader.lookup(test_key()).has_value());
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  EXPECT_EQ(reader.stats().hits, 2u);
}

TEST_F(DiskStoreTest, TruncatedRecordIsMissThenRewritten) {
  {
    runtime::ResultStore writer(options_);
    writer.store(test_key(), sample_counts());
  }
  const fs::path record = record_path();
  ASSERT_FALSE(record.empty());
  fs::resize_file(record, fs::file_size(record) / 2);

  runtime::ResultStore store(options_);
  EXPECT_FALSE(store.lookup(test_key()).has_value());
  EXPECT_EQ(store.stats().corrupt_discarded, 1u);

  // The next store() heals the record for future processes.
  store.store(test_key(), sample_counts());
  runtime::ResultStore reader(options_);
  EXPECT_TRUE(reader.lookup(test_key()).has_value());
}

TEST_F(DiskStoreTest, GarbageRecordIsMissNeverCrash) {
  {
    runtime::ResultStore writer(options_);
    writer.store(test_key(), sample_counts());
  }
  {
    std::ofstream out(record_path(), std::ios::trunc | std::ios::binary);
    out << "\x00\xff not a record at all \x7f garbage\nmore\n";
  }
  runtime::ResultStore store(options_);
  EXPECT_FALSE(store.lookup(test_key()).has_value());
  EXPECT_EQ(store.stats().corrupt_discarded, 1u);
}

TEST_F(DiskStoreTest, TamperedVersionInvalidatesRecord) {
  {
    runtime::ResultStore writer(options_);
    writer.store(test_key(), sample_counts());
  }
  // Rewrite the header's version field: a record written by any other
  // format version must read as a miss (the checksum binds the version, so
  // old-format records can never alias new-format ones).
  const fs::path record = record_path();
  std::stringstream contents;
  contents << std::ifstream(record).rdbuf();
  std::string text = contents.str();
  const std::string needle = "ctresult 1";
  const auto pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(), "ctresult 0");
  std::ofstream(record, std::ios::trunc) << text;

  runtime::ResultStore store(options_);
  EXPECT_FALSE(store.lookup(test_key()).has_value());
  EXPECT_EQ(store.stats().corrupt_discarded, 1u);
}

TEST_F(DiskStoreTest, HalfWrittenTmpIsIgnoredAndCollectedOnOpen) {
  {
    runtime::ResultStore writer(options_);
    writer.store(test_key(), sample_counts());
  }
  const fs::path record = record_path();
  ASSERT_FALSE(record.empty());
  // A crash between tmp-write and rename leaves a ".tmp" sibling that
  // never became a record. It must never serve a lookup, and the next
  // open garbage-collects it.
  const fs::path tmp = record.string() + ".tmp";
  std::ofstream(tmp, std::ios::binary) << "ctresult 1 half-writ";
  ASSERT_TRUE(fs::exists(tmp));

  runtime::ResultStore store(options_);
  EXPECT_FALSE(fs::exists(tmp)) << "leftover tmp survived open";
  const auto hit = store.lookup(test_key());
  ASSERT_TRUE(hit.has_value());  // the published record is untouched
  EXPECT_EQ(*hit, sample_counts());
  EXPECT_EQ(store.stats().corrupt_discarded, 0u);
}

TEST_F(DiskStoreTest, RecordUnderWrongKeyIsMiss) {
  {
    runtime::ResultStore writer(options_);
    writer.store(test_key('a'), sample_counts());
  }
  // Simulate key collision/rename corruption: serve key-a's record when
  // key-b is asked for. The embedded key must reject it.
  runtime::ResultStore probe(options_);
  probe.store(test_key('b'), sample_counts());
  fs::path a_path, b_path;
  for (const auto& entry : fs::recursive_directory_iterator(dir_)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.find(test_key('a')) != std::string::npos) a_path = entry.path();
    if (name.find(test_key('b')) != std::string::npos) b_path = entry.path();
  }
  ASSERT_FALSE(a_path.empty());
  ASSERT_FALSE(b_path.empty());
  fs::copy_file(a_path, b_path, fs::copy_options::overwrite_existing);

  runtime::ResultStore store(options_);
  EXPECT_FALSE(store.lookup(test_key('b')).has_value());
  EXPECT_EQ(store.stats().corrupt_discarded, 1u);
}

TEST_F(DiskStoreTest, HostileKeysNeverTouchDisk) {
  runtime::ResultStore store(options_);
  // Keys are produced by our own digest (lowercase hex), but the store
  // must not turn anything else into a path traversal.
  for (const std::string& key :
       {std::string("../../etc/passwd"), std::string("UPPER"),
        std::string(200, 'a'), std::string("")}) {
    store.store(key, sample_counts());
    // In-memory layer may still serve it; disk must hold only safe names.
  }
  for (const auto& entry : fs::recursive_directory_iterator(dir_)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().stem().string();
    EXPECT_LE(name.size(), 128u);
    for (const char c : name) {
      EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
          << "unexpected on-disk record name: " << name;
    }
  }
}

TEST_F(DiskStoreTest, InjectedWriteFailureIsSoftAndCounted) {
  options_.inject_write_failure = true;
  runtime::ResultStore store(options_);
  EXPECT_TRUE(store.disk_active());
  store.store(test_key(), sample_counts());
  // The write failed softly: memory still serves the result, the failure
  // is counted, and nothing landed on disk.
  EXPECT_TRUE(store.lookup(test_key()).has_value());
  EXPECT_EQ(store.stats().write_failures, 1u);
  EXPECT_TRUE(record_path().empty());

  runtime::ResultStoreOptions clean = options_;
  clean.inject_write_failure = false;
  runtime::ResultStore reader(clean);
  EXPECT_FALSE(reader.lookup(test_key()).has_value());
}

TEST_F(DiskStoreTest, RepeatedWriteFailuresDisableDiskLayer) {
  options_.inject_write_failure = true;
  runtime::ResultStore store(options_);
  for (char k = 'a';
       k < 'a' + static_cast<char>(
                     runtime::ResultStore::kMaxConsecutiveWriteFailures);
       ++k) {
    EXPECT_TRUE(store.disk_active());
    store.store(test_key(k), sample_counts());
  }
  // After the threshold the disk layer self-disables: further stores are
  // memory-only and the failure counter stops climbing.
  EXPECT_FALSE(store.disk_active());
  store.store(test_key('z'), sample_counts());
  EXPECT_EQ(store.stats().write_failures,
            runtime::ResultStore::kMaxConsecutiveWriteFailures);
  EXPECT_TRUE(store.lookup(test_key('z')).has_value());
}

TEST(ResultStoreDirTest, UnusableDiskDirDegradesToMemory) {
  // A regular file where the cache dir should be: every disk operation
  // fails (even for root), and the store must shrug it off.
  const fs::path blocker = fs::path(::testing::TempDir()) / "ct_store_blocker";
  std::ofstream(blocker) << "not a directory";
  runtime::ResultStoreOptions options;
  options.disk = true;
  options.disk_dir = (blocker / "sub").string();
  runtime::ResultStore store(options);
  store.store(test_key(), sample_counts());  // disk write silently fails
  EXPECT_TRUE(store.lookup(test_key()).has_value());
  fs::remove(blocker);
}

}  // namespace
}  // namespace ct
