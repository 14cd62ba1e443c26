#include "runtime/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
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

/// Durable-write telemetry: fsync'd-write latency and total journal bytes,
/// folded once per durable write (the begin() publish and every append).
struct CheckpointMetrics {
  obs::Histogram flush_us{"checkpoint.flush_us"};
  obs::Counter flushes{"checkpoint.flushes"};
  obs::Counter journal_bytes{"checkpoint.journal_bytes"};
};

CheckpointMetrics& checkpoint_metrics() {
  static CheckpointMetrics m;
  return m;
}

/// Counts one durable write of `bytes`; the caller times it with
/// `checkpoint_metrics().flush_us`.
void count_flush(std::size_t bytes) {
  CheckpointMetrics& m = checkpoint_metrics();
  m.flushes.inc();
  m.journal_bytes.inc(bytes);
}

// --- crash-site accounting --------------------------------------------------

/// Process-wide durable-write counter. Flushes happen on the sweep thread
/// in slice order, so for a given workload the Nth site is always the same
/// instant — which is what makes CT_CRASH reproducible.
std::atomic<std::uint64_t> g_crash_sites{0};

std::uint64_t next_crash_site() noexcept {
  return g_crash_sites.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Injected process death: no unwinding, no stream flushing, no atexit —
/// the same observable behavior as an OOM kill or power loss.
[[noreturn]] void die() { ::_exit(CrashProfile::kExitCode); }

bool write_all(int fd, const char* data, std::size_t n) noexcept {
  std::size_t written = 0;
  while (written < n) {
    const ::ssize_t r = ::write(fd, data + written, n - written);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(r);
  }
  return true;
}

/// util::atomic_write_file with the three CT_CRASH points wired in: die
/// before any byte, die after a torn prefix of the tmp file, die after the
/// rename + directory fsync completed.
bool publish_with_crash_points(const std::string& path,
                               const std::string& contents,
                               const CrashProfile& crash) {
  obs::ScopedTimer timer(checkpoint_metrics().flush_us);
  count_flush(contents.size());
  const std::uint64_t site = next_crash_site();
  if (crash.fires(CrashPoint::kBeforeWrite, site)) die();
  if (crash.fires(CrashPoint::kTornWrite, site)) {
    // A prefix of the write reaches the disk, then the process dies — the
    // tmp never renames, so replay must ignore and GC it.
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      write_all(fd, contents.data(),
                std::max<std::size_t>(1, contents.size() / 2));
      ::fsync(fd);
    }
    die();
  }
  const bool ok = util::atomic_write_file(path, contents);
  if (ok && crash.fires(CrashPoint::kAfterWrite, site)) die();
  return ok;
}

// --- text framing -----------------------------------------------------------

/// Journal fields are space-separated; strings are percent-escaped so an
/// arbitrary error message can never break record framing.
std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const unsigned char c : s) {
    if (c <= 0x20 || c == '%' || c >= 0x7f) {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02x", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
  if (out.empty()) out = "%00";  // empty field would vanish in a split
  return out;
}

bool unescape(std::string_view s, std::string& out) {
  out.clear();
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out += s[i];
      continue;
    }
    if (i + 2 >= s.size()) return false;
    const auto hex = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      return -1;
    };
    const int hi = hex(s[i + 1]);
    const int lo = hex(s[i + 2]);
    if (hi < 0 || lo < 0) return false;
    const char decoded = static_cast<char>(hi * 16 + lo);
    // %00 doubles as the empty-field marker; a stray NUL in a message is
    // dropped rather than poisoning downstream C strings.
    if (decoded != '\0') out += decoded;
    i += 2;
  }
  return true;
}

/// Line-scoped tokenizer: whitespace-split with typed extraction.
struct LineReader {
  std::istringstream in;
  bool ok = true;

  explicit LineReader(const std::string& line) : in(line) {}

  std::string tok() {
    std::string t;
    if (!(in >> t)) ok = false;
    return t;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    if (!(in >> v)) ok = false;
    return v;
  }
  std::string text() {  // unescaped string token
    std::string raw = tok();
    std::string out;
    if (ok && !unescape(raw, out)) ok = false;
    return out;
  }
  bool done() {  // true when the whole line was consumed
    std::string rest;
    return ok && !(in >> rest);
  }
};

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  if (!in) return lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void failure_to_stream(std::ostringstream& out, const FailureRecord& f) {
  out << "F " << f.realization << ' ' << f.seed << ' ' << f.attempts << ' '
      << static_cast<int>(f.code) << ' ' << escape(f.origin) << ' '
      << escape(f.message) << '\n';
}

bool failure_from_line(const std::string& line, FailureRecord& f) {
  LineReader r(line);
  if (r.tok() != "F") return false;
  f.realization = r.u64();
  f.seed = r.u64();
  f.attempts = static_cast<unsigned>(r.u64());
  f.code = static_cast<util::ErrorCode>(r.u64());
  f.origin = r.text();
  f.message = r.text();
  return r.done();
}

void digest_failure(util::Digest& d, const FailureRecord& f) {
  d.u64(f.realization)
      .u64(f.seed)
      .u64(f.attempts)
      .i64(static_cast<int>(f.code))
      .str(f.origin)
      .str(f.message);
}

}  // namespace

// --- SweepProgress ----------------------------------------------------------

std::uint64_t SweepProgress::completed() const noexcept {
  std::uint64_t n = 0;
  for (const auto& [b, e] : done) n += e - b;
  return n;
}

bool SweepProgress::merge_range(std::uint64_t begin, std::uint64_t end) {
  if (begin >= end) return false;
  auto it = std::lower_bound(
      done.begin(), done.end(), begin,
      [](const auto& range, std::uint64_t v) { return range.first < v; });
  // Overlap (touching does NOT count: [0,512)+[512,544) is the normal
  // shape of consecutive slices) with the predecessor or successor?
  if (it != done.begin() && std::prev(it)->second > begin) return false;
  if (it != done.end() && it->first < end) return false;
  it = done.insert(it, {begin, end});
  // Coalesce with exact-adjacent neighbors to keep `done` minimal.
  if (const auto next = std::next(it);
      next != done.end() && next->first == it->second) {
    it->second = next->second;
    done.erase(next);
  }
  if (it != done.begin()) {
    const auto prev = std::prev(it);
    if (prev->second == it->first) {
      prev->second = it->second;
      done.erase(it);
    }
  }
  return true;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> SweepProgress::missing(
    std::uint64_t count) const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  std::uint64_t cursor = 0;
  for (const auto& [b, e] : done) {
    if (b >= count) break;
    if (cursor < b) out.emplace_back(cursor, std::min(b, count));
    cursor = std::max(cursor, e);
  }
  if (cursor < count) out.emplace_back(cursor, count);
  return out;
}

std::string_view resume_status_name(ResumeStatus status) noexcept {
  switch (status) {
    case ResumeStatus::kColdStart: return "cold-start";
    case ResumeStatus::kResumed: return "resumed";
    case ResumeStatus::kStale: return "stale";
    case ResumeStatus::kCorrupt: return "corrupt";
  }
  return "cold-start";
}

// --- SweepJournal -----------------------------------------------------------

SweepJournal::SweepJournal(CheckpointOptions options, SweepSpec spec)
    : options_(std::move(options)), spec_(std::move(spec)),
      crash_(options_.crash_spec.empty()
                 ? CrashProfile::from_env()
                 : CrashProfile::parse(options_.crash_spec)) {}

SweepJournal::~SweepJournal() { close(); }

void SweepJournal::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::string SweepJournal::journal_path() const {
  util::Digest d;
  d.str("ct-sweep-file").str(spec_.digest);
  return options_.dir + "/" + d.hex() + ".jrnl";
}

std::string SweepJournal::header_text() const {
  std::ostringstream out;
  out << "ctjournal " << kFormatVersion << ' ' << spec_.count << ' '
      << spec_.series.size() << '\n';
  out << "D " << escape(spec_.digest) << '\n';
  for (const std::string& s : spec_.series) out << "S " << escape(s) << '\n';
  out << "H " << header_checksum() << '\n';
  return out.str();
}

std::string SweepJournal::header_checksum() const {
  util::Digest d;
  d.str("ct-journal-header")
      .i64(kFormatVersion)
      .str(spec_.digest)
      .u64(spec_.count)
      .u64(spec_.series.size());
  for (const std::string& s : spec_.series) d.str(s);
  return d.hex();
}

namespace {

/// Checksum binding one journal record to its header, sequence position,
/// and full payload — a bit flip, splice, or reorder can never verify.
std::string record_checksum(const std::string& header_checksum,
                            std::uint64_t seq, std::uint64_t begin,
                            std::uint64_t end, std::uint64_t retries,
                            const std::vector<SeriesCounts>& delta,
                            const std::vector<FailureRecord>& failures) {
  util::Digest d;
  d.str("ct-journal-record").str(header_checksum).u64(seq).u64(begin).u64(end)
      .u64(retries);
  d.u64(delta.size());
  for (const SeriesCounts& s : delta) {
    for (const std::uint64_t c : s) d.u64(c);
  }
  d.u64(failures.size());
  for (const FailureRecord& f : failures) digest_failure(d, f);
  return d.hex();
}

/// One parsed journal record.
struct ParsedRecord {
  std::uint64_t seq = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t retries = 0;
  std::vector<SeriesCounts> delta;
  std::vector<FailureRecord> failures;
};

enum class RecordParse { kOk, kTorn, kBad };

/// Parses one record starting at lines[idx] (which must be an "R " line).
/// kTorn = the file ended mid-record (the only shape a crash can leave);
/// kBad = framing or checksum violation.
RecordParse parse_record(const std::vector<std::string>& lines,
                         std::size_t idx, std::size_t nseries,
                         const std::string& header_checksum,
                         ParsedRecord& out, std::size_t& next_idx) {
  if (idx >= lines.size()) return RecordParse::kTorn;
  LineReader r(lines[idx]);
  if (r.tok() != "R") return RecordParse::kBad;
  out.seq = r.u64();
  out.begin = r.u64();
  out.end = r.u64();
  out.retries = r.u64();
  const std::uint64_t nfail = r.u64();
  if (!r.done()) return RecordParse::kBad;
  std::size_t at = idx + 1;
  out.delta.assign(nseries, SeriesCounts{});
  for (std::size_t s = 0; s < nseries; ++s, ++at) {
    if (at >= lines.size()) return RecordParse::kTorn;
    LineReader k(lines[at]);
    if (k.tok() != "K") return RecordParse::kBad;
    for (std::uint64_t& c : out.delta[s]) c = k.u64();
    if (!k.done()) return RecordParse::kBad;
  }
  out.failures.clear();
  for (std::uint64_t f = 0; f < nfail; ++f, ++at) {
    if (at >= lines.size()) return RecordParse::kTorn;
    FailureRecord record;
    if (!failure_from_line(lines[at], record)) return RecordParse::kBad;
    out.failures.push_back(std::move(record));
  }
  if (at >= lines.size()) return RecordParse::kTorn;
  LineReader e(lines[at]);
  if (e.tok() != "E") return RecordParse::kBad;
  const std::string checksum = e.tok();
  if (!e.done()) return RecordParse::kBad;
  if (checksum != record_checksum(header_checksum, out.seq, out.begin,
                                  out.end, out.retries, out.delta,
                                  out.failures)) {
    return RecordParse::kBad;
  }
  next_idx = at + 1;
  return RecordParse::kOk;
}

/// True when any complete, checksum-valid record exists at or after
/// lines[from] — the discriminator between a torn tail (nothing valid
/// follows) and interior corruption (valid data follows the damage).
bool any_valid_record_after(const std::vector<std::string>& lines,
                            std::size_t from, std::size_t nseries,
                            const std::string& header_checksum) {
  for (std::size_t i = from; i < lines.size(); ++i) {
    if (lines[i].rfind("R ", 0) != 0) continue;
    ParsedRecord record;
    std::size_t next = 0;
    if (parse_record(lines, i, nseries, header_checksum, record, next) ==
        RecordParse::kOk) {
      return true;
    }
  }
  return false;
}

void remove_leftover_tmp(const std::string& path) {
  const std::string tmp = path + ".tmp";
  std::error_code ec;
  if (fs::exists(tmp, ec)) {
    fs::remove(tmp, ec);
    CT_LOG(kInfo, "checkpoint")
        << "event=checkpoint_gc file=" << tmp
        << " reason=half-written-tmp-from-crash";
  }
}

}  // namespace

ResumeInfo SweepJournal::load(SweepProgress& progress) {
  ResumeInfo info;
  progress = SweepProgress{};
  progress.series.assign(spec_.series.size(), SeriesCounts{});
  replayed_.clear();
  next_seq_ = 1;
  // A crash mid-publish leaves only a ".tmp"; it never renamed, so it is
  // garbage by construction — ignore and collect it.
  remove_leftover_tmp(journal_path());

  const auto cold = [&](ResumeStatus status, const std::string& detail) {
    progress = SweepProgress{};
    progress.series.assign(spec_.series.size(), SeriesCounts{});
    replayed_.clear();
    next_seq_ = 1;
    info = ResumeInfo{};
    info.status = status;
    info.detail = detail;
    return info;
  };
  const auto corrupt = [&](const std::string& why) {
    const util::Error error(util::ErrorCode::kCheckpointCorrupt, "checkpoint",
                            why + " (" + journal_path() + ")");
    CT_LOG(kError, "checkpoint")
        << "event=checkpoint_corrupt file=" << journal_path()
        << " reason=" << escape(why) << " action=cold-start";
    return cold(ResumeStatus::kCorrupt, error.what());
  };
  const auto stale = [&](const std::string& why) {
    CT_LOG(kWarn, "checkpoint")
        << "event=checkpoint_stale file=" << journal_path()
        << " reason=" << escape(why) << " action=cold-start";
    return cold(ResumeStatus::kStale, why);
  };

  std::error_code ec;
  if (!fs::exists(journal_path(), ec)) return info;
  const std::vector<std::string> lines = read_lines(journal_path());
  // The version token is checked before the header's shape, so a journal
  // of an older layout reads as stale, not corrupt.
  LineReader h(lines.empty() ? std::string() : lines[0]);
  bool header_ok = h.tok() == "ctjournal";
  const std::uint64_t version = h.u64();
  if (header_ok && h.ok &&
      version != static_cast<std::uint64_t>(kFormatVersion)) {
    return stale("journal format version mismatch");
  }
  const std::size_t header_lines = 3 + spec_.series.size();
  if (lines.size() < header_lines) {
    // A journal header is published atomically, so a short file can only
    // be external damage — but with no records at stake, a quiet cold
    // start is both safe and forgiving.
    CT_LOG(kWarn, "checkpoint")
        << "event=checkpoint_replay file=" << journal_path()
        << " note=truncated-header records=0";
    return info;
  }
  const std::uint64_t count = h.u64();
  const std::uint64_t nseries = h.u64();
  header_ok = header_ok && h.done();
  std::string digest;
  if (header_ok) {
    LineReader d(lines[1]);
    header_ok = d.tok() == "D" && (digest = d.text(), d.done());
  }
  std::vector<std::string> series;
  if (header_ok) {
    for (std::size_t s = 0; s < nseries; ++s) {
      if (2 + s >= lines.size()) {
        header_ok = false;
        break;
      }
      LineReader sr(lines[2 + s]);
      std::string key;
      if (sr.tok() != "S" || (key = sr.text(), !sr.done())) {
        header_ok = false;
        break;
      }
      series.push_back(std::move(key));
    }
  }
  std::string checksum;
  if (header_ok && 2 + nseries < lines.size()) {
    LineReader c(lines[2 + nseries]);
    header_ok = c.tok() == "H" && (checksum = c.tok(), c.done());
  } else {
    header_ok = false;
  }
  if (!header_ok) return corrupt("malformed journal header");
  if (digest != spec_.digest || count != spec_.count ||
      series != spec_.series) {
    return stale("journal was written under different sweep inputs");
  }
  if (checksum != header_checksum()) {
    return corrupt("journal header checksum mismatch");
  }

  std::size_t idx = header_lines;
  while (idx < lines.size()) {
    if (lines[idx].empty()) {
      ++idx;
      continue;
    }
    ParsedRecord record;
    std::size_t next = 0;
    const RecordParse status = parse_record(
        lines, idx, spec_.series.size(), checksum, record, next);
    if (status != RecordParse::kOk) {
      if (status == RecordParse::kBad &&
          any_valid_record_after(lines, idx + 1, spec_.series.size(),
                                 checksum)) {
        return corrupt("interior journal record is corrupt");
      }
      // Torn tail: the crash interrupted the final append. The record
      // never committed; its range simply gets recomputed, and begin()'s
      // republish drops its bytes.
      info.torn_tail_dropped = true;
      CT_LOG(kInfo, "checkpoint")
          << "event=checkpoint_replay file=" << journal_path()
          << " note=torn-tail-dropped at_record=" << next_seq_;
      break;
    }
    if (record.seq != next_seq_ || record.end > spec_.count ||
        !progress.merge_range(record.begin, record.end)) {
      return corrupt("journal record sequence/range violation");
    }
    for (std::size_t s = 0; s < spec_.series.size(); ++s) {
      for (std::size_t c = 0; c < 4; ++c) {
        progress.series[s][c] += record.delta[s][c];
      }
    }
    for (FailureRecord& f : record.failures) {
      progress.failures.push_back(std::move(f));
    }
    progress.retries += record.retries;
    for (; idx < next; ++idx) replayed_.append(lines[idx]).append(1, '\n');
    ++next_seq_;
  }

  std::sort(progress.failures.begin(), progress.failures.end(),
            [](const FailureRecord& a, const FailureRecord& b) {
              return a.realization < b.realization;
            });
  info.restored = progress.completed();
  info.status =
      info.restored > 0 ? ResumeStatus::kResumed : ResumeStatus::kColdStart;
  if (info.status == ResumeStatus::kResumed) {
    CT_LOG(kInfo, "checkpoint")
        << "event=checkpoint_replay status=resumed restored=" << info.restored
        << "/" << spec_.count << " records=" << next_seq_ - 1
        << " failures=" << progress.failures.size()
        << " torn_tail=" << (info.torn_tail_dropped ? 1 : 0);
  }
  return info;
}

bool SweepJournal::begin() {
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    CT_LOG(kWarn, "checkpoint") << "event=checkpoint_disabled dir="
                                << options_.dir << " reason=" << ec.message();
    return false;
  }
  close();
  // Cold and warm starts share this path: the header plus whatever records
  // load() validated (none on a cold, stale or corrupt start). The publish
  // drops any torn tail, so this run appends only after checked records.
  const bool published = publish_with_crash_points(
      journal_path(), header_text() + replayed_, crash_);
  std::string().swap(replayed_);
  if (!published) {
    CT_LOG(kWarn, "checkpoint")
        << "event=checkpoint_disabled file=" << journal_path()
        << " reason=journal-publish-failed";
    return false;
  }
  ++writes_;
  fd_ = ::open(journal_path().c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) {
    CT_LOG(kWarn, "checkpoint")
        << "event=checkpoint_disabled file=" << journal_path()
        << " reason=cannot-reopen-journal";
    return false;
  }
  CT_LOG(kInfo, "checkpoint")
      << "event=checkpoint_write kind=journal-publish records="
      << next_seq_ - 1;
  return true;
}

bool SweepJournal::append(std::uint64_t begin, std::uint64_t end,
                          const std::vector<SeriesCounts>& delta,
                          const std::vector<FailureRecord>& slice_failures,
                          std::uint64_t retries_delta) {
  if (fd_ < 0) return false;
  std::ostringstream out;
  out << "R " << next_seq_ << ' ' << begin << ' ' << end << ' '
      << retries_delta << ' ' << slice_failures.size() << '\n';
  for (const SeriesCounts& s : delta) {
    out << "K " << s[0] << ' ' << s[1] << ' ' << s[2] << ' ' << s[3] << '\n';
  }
  for (const FailureRecord& f : slice_failures) failure_to_stream(out, f);
  out << "E "
      << record_checksum(header_checksum(), next_seq_, begin, end,
                         retries_delta, delta, slice_failures)
      << '\n';
  const std::string record = out.str();

  obs::ScopedTimer timer(checkpoint_metrics().flush_us);
  count_flush(record.size());
  const std::uint64_t site = next_crash_site();
  if (crash_.fires(CrashPoint::kBeforeWrite, site)) die();
  if (crash_.fires(CrashPoint::kTornWrite, site)) {
    // Torn record: a prefix reaches the disk, then the process dies —
    // exactly the tail shape load() must silently drop.
    write_all(fd_, record.data(),
              std::max<std::size_t>(1, record.size() / 2));
    ::fsync(fd_);
    die();
  }
  if (!write_all(fd_, record.data(), record.size()) || ::fsync(fd_) != 0) {
    CT_LOG(kWarn, "checkpoint")
        << "event=checkpoint_disabled file=" << journal_path()
        << " reason=append-write-failed";
    close();
    return false;
  }
  ++writes_;
  CT_LOG(kInfo, "checkpoint")
      << "event=checkpoint_write kind=record seq=" << next_seq_ << " range=["
      << begin << ',' << end << ") bytes=" << record.size();
  if (crash_.fires(CrashPoint::kAfterWrite, site)) die();
  ++next_seq_;
  return true;
}

void SweepJournal::finish() {
  close();
  std::error_code ec;
  fs::remove(journal_path(), ec);
  util::fsync_parent_dir(journal_path());
  CT_LOG(kInfo, "checkpoint")
      << "event=checkpoint_finish digest=" << escape(spec_.digest)
      << " writes=" << writes_;
}

}  // namespace ct::runtime
