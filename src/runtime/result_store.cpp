#include "runtime/result_store.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/metrics.h"
#include "util/digest.h"
#include "util/fsio.h"
#include "util/log.h"

namespace ct::runtime {

namespace fs = std::filesystem;

namespace {

/// Process-wide cache counters (every ResultStore instance folds in) plus
/// the lookup-latency profiling hook.
struct CacheMetrics {
  obs::Counter lookups{"cache.lookups"};
  obs::Counter hits{"cache.hits"};
  obs::Counter disk_hits{"cache.disk_hits"};
  obs::Counter corrupt_discarded{"cache.corrupt_discarded"};
  obs::Counter write_failures{"cache.write_failures"};
  obs::Histogram lookup_us{"cache.lookup_us"};
};

CacheMetrics& cache_metrics() {
  static CacheMetrics m;
  return m;
}

/// Checksum line binding a record's payload to its key and version, so a
/// truncated or hand-edited record can never parse as a hit.
std::string record_checksum(const std::string& key, const CachedCounts& v) {
  util::Digest d;
  d.str("ct-result-record").i64(ResultStore::kFormatVersion).str(key);
  for (const std::uint64_t c : v.counts) d.u64(c);
  d.u64(v.total).u64(v.skipped);
  return d.hex();
}

bool key_is_safe(const std::string& key) {
  if (key.empty() || key.size() > 128) return false;
  for (const char c : key) {
    const bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!ok) return false;  // keys are digest hex; anything else stays out
  }
  return true;
}

}  // namespace

std::string ResultStore::default_cache_dir() {
  if (const char* env = std::getenv("CT_CACHE_DIR"); env && *env) return env;
  if (const char* xdg = std::getenv("XDG_CACHE_HOME"); xdg && *xdg) {
    return std::string(xdg) + "/ct";
  }
  if (const char* home = std::getenv("HOME"); home && *home) {
    return std::string(home) + "/.cache/ct";
  }
  return {};
}

ResultStore::ResultStore(ResultStoreOptions options)
    : options_(std::move(options)) {
  if (options_.memory_entries == 0) options_.memory_entries = 1;
  if (options_.disk) {
    disk_dir_ = options_.disk_dir.empty() ? default_cache_dir()
                                          : options_.disk_dir;
    if (!disk_dir_.empty()) {
      std::error_code ec;
      fs::create_directories(disk_dir_, ec);
      if (ec) {
        CT_LOG(kWarn, "runtime") << "result cache: cannot create "
                                 << disk_dir_ << " (" << ec.message()
                                 << "); disk layer disabled";
        disk_dir_.clear();
      }
    }
    disk_enabled_.store(!disk_dir_.empty(), std::memory_order_release);
    if (!disk_dir_.empty()) gc_leftover_tmp_files();
  }
}

void ResultStore::gc_leftover_tmp_files() {
  // A crash between tmp-write and rename leaves a half-written "*.tmp" in
  // a fan-out directory. It never renamed, so it is garbage by
  // construction: readers already ignore it (only ".ctr" paths are ever
  // opened); collect it here so crashes cannot accumulate dead files.
  std::error_code ec;
  std::size_t removed = 0;
  for (fs::directory_iterator dir(disk_dir_, ec);
       !ec && dir != fs::directory_iterator(); dir.increment(ec)) {
    if (!dir->is_directory(ec)) continue;
    for (fs::directory_iterator entry(dir->path(), ec);
         !ec && entry != fs::directory_iterator(); entry.increment(ec)) {
      if (entry->path().extension() == ".tmp") {
        std::error_code remove_ec;
        if (fs::remove(entry->path(), remove_ec)) ++removed;
      }
    }
  }
  if (removed > 0) {
    CT_LOG(kInfo, "runtime")
        << "result cache: collected " << removed
        << " half-written tmp file(s) left by a crashed process";
  }
}

std::string ResultStore::record_path(const std::string& key) const {
  // Two-level fan-out keeps directories small at production entry counts.
  return disk_dir_ + "/" + key.substr(0, 2) + "/" + key + ".ctr";
}

std::optional<CachedCounts> ResultStore::lookup(const std::string& key) {
  CacheMetrics& m = cache_metrics();
  obs::ScopedTimer timer(m.lookup_us);
  lookups_.fetch_add(1, std::memory_order_relaxed);
  m.lookups.inc();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      m.hits.inc();
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->value;
    }
  }
  if (!disk_active() || !key_is_safe(key)) return std::nullopt;
  const std::optional<CachedCounts> from_disk = read_disk(key);
  if (!from_disk) return std::nullopt;
  hits_.fetch_add(1, std::memory_order_relaxed);
  disk_hits_.fetch_add(1, std::memory_order_relaxed);
  m.hits.inc();
  m.disk_hits.inc();
  std::lock_guard<std::mutex> lock(mutex_);
  touch_locked(key, *from_disk);
  return from_disk;
}

void ResultStore::store(const std::string& key, const CachedCounts& value) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    touch_locked(key, value);
  }
  if (!disk_active() || !key_is_safe(key)) return;
  if (write_disk(key, value)) {
    consecutive_write_failures_.store(0, std::memory_order_relaxed);
    return;
  }
  // Soft failure: the memory layer already holds the value, so this run
  // loses nothing — only future processes lose the warm start.
  write_failures_.fetch_add(1, std::memory_order_relaxed);
  cache_metrics().write_failures.inc();
  const unsigned in_a_row =
      consecutive_write_failures_.fetch_add(1, std::memory_order_relaxed) + 1;
  CT_LOG(kWarn, "runtime") << "result cache: disk write failed for " << key
                           << " (" << in_a_row << " consecutive); "
                           << "continuing memory-only for this entry";
  if (in_a_row >= kMaxConsecutiveWriteFailures && disk_active()) {
    disk_enabled_.store(false, std::memory_order_release);
    CT_LOG(kWarn, "runtime")
        << "result cache: " << kMaxConsecutiveWriteFailures
        << " consecutive disk write failures; disk layer disabled "
        << "(memory-only from here on)";
  }
}

void ResultStore::touch_locked(const std::string& key,
                               const CachedCounts& value) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->value = value;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, value});
  index_[key] = lru_.begin();
  while (lru_.size() > options_.memory_entries) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
}

std::optional<CachedCounts> ResultStore::read_disk(const std::string& key) {
  std::ifstream in(record_path(key));
  if (!in) return std::nullopt;  // plain miss: never cached here

  const auto corrupt = [this]() -> std::optional<CachedCounts> {
    corrupt_discarded_.fetch_add(1, std::memory_order_relaxed);
    cache_metrics().corrupt_discarded.inc();
    return std::nullopt;
  };

  std::string magic, file_key, check;
  int version = -1;
  CachedCounts v;
  in >> magic >> version >> file_key;
  if (!in || magic != "ctresult") return corrupt();
  if (version != kFormatVersion) return corrupt();  // old format: miss
  if (file_key != key) return corrupt();            // hash-bucket collision
  for (std::uint64_t& c : v.counts) in >> c;
  in >> v.total >> v.skipped >> check;
  if (!in) return corrupt();  // truncated / non-numeric payload
  if (check != record_checksum(key, v)) return corrupt();
  std::uint64_t sum = 0;
  for (const std::uint64_t c : v.counts) sum += c;
  if (sum != v.total) return corrupt();  // internally inconsistent
  return v;
}

bool ResultStore::write_disk(const std::string& key,
                             const CachedCounts& value) {
  if (options_.inject_write_failure) return false;  // simulated ENOSPC
  std::error_code ec;
  const fs::path path = record_path(key);
  fs::create_directories(path.parent_path(), ec);
  if (ec) return false;

  std::ostringstream record;
  record << "ctresult " << kFormatVersion << " " << key << "\n";
  for (const std::uint64_t c : value.counts) record << c << " ";
  record << "\n" << value.total << " " << value.skipped << "\n"
         << record_checksum(key, value) << "\n";

  // Write-then-rename so a concurrent reader sees either the old record or
  // the complete new one (and a crash mid-write leaves only a .tmp).
  return util::atomic_write_file(path.string(), record.str());
}

ResultStore::Stats ResultStore::stats() const {
  Stats s;
  s.lookups = lookups_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.disk_hits = disk_hits_.load(std::memory_order_relaxed);
  s.corrupt_discarded = corrupt_discarded_.load(std::memory_order_relaxed);
  s.write_failures = write_failures_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ct::runtime
