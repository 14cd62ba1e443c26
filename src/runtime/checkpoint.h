// Crash-consistent checkpoint/resume for ensemble sweeps.
//
// A sweep (realizations [0, count) × K outcome series) is made preemption-
// safe by one file under the checkpoint directory, `<digest>.jrnl`, keyed by
// the sweep's content digest (the PR-4 engine-batch digest + the series
// keys), so a checkpoint taken under different knobs can never be resumed.
// It is an append-only, record-framed journal: every checkpoint interval
// the sweep appends one checksummed record holding a completed index range,
// the per-series outcome-count deltas for that range, and the PR-6
// failure/quarantine records that fell inside it; the record is fsync'd
// before the sweep moves on. Replay length is bounded by count / interval
// records (8 for the paper sweep at the default interval).
//
// Crash model and the atomicity argument (DESIGN.md §12): the process may
// die at ANY instant (`_exit`, OOM kill, power loss). Because records are
// appended sequentially and checksummed, a crash can only ever produce a
// TORN TAIL — a final record prefix — which replay silently drops (that
// range is simply recomputed). Any OTHER anomaly (a bad record with a
// valid record after it, a checksum/sequence mismatch, an overlapping
// range) cannot be produced by a crash, only by corruption or tampering,
// and is reported as a typed kCheckpointCorrupt event followed by a cold
// start — a checkpoint is an accelerator, never a correctness dependency.
// Every run starts by atomically republishing the header plus the records
// it validated, so a resumed run appends only after checked records: a
// torn tail never sits in front of new ones.
//
// Replayed state is merged IN ASCENDING RANGE ORDER and all folds are
// integer count sums, so a resumed sweep is bit-identical at any --jobs
// value to an uninterrupted one.
//
// Deterministic process-death injection: every durable write (the journal
// publish at begin(), each record append) is a numbered crash SITE; the
// CT_CRASH profile (see fault_profile.h) kills the process before / mid-
// write (torn) / after a chosen site, which is how the self-exec crash
// harness proves every instant is recoverable.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/fault_profile.h"
#include "util/error.h"

namespace ct::runtime {

/// One quarantined realization: everything needed to aggregate, report,
/// deterministically replay — and, via the journal, survive a process
/// death (a resumed sweep must not re-count a quarantined index).
struct FailureRecord {
  std::uint64_t realization = 0;  ///< Monte-Carlo index (replay handle)
  std::uint64_t seed = 0;         ///< ensemble base seed (0 when unknown)
  unsigned attempts = 0;          ///< attempts consumed (1 + retries)
  util::ErrorCode code = util::ErrorCode::kUnknown;
  std::string origin;             ///< failing component ("surge", ...)
  std::string message;            ///< last attempt's what()
};

/// Failure accounting threaded between the generation and counting stages.
struct FailureLedger {
  std::vector<FailureRecord> failures;  ///< sorted by realization index
  std::uint64_t retries = 0;            ///< extra attempts (healed + exhausted)
};

/// Progress of a sweep as observed at a slice boundary; handed to
/// CheckpointOptions::on_progress so a caller (the ct_service streaming
/// path, a progress bar) can follow a long sweep without touching its
/// determinism — observation only, the sweep never reads anything back.
struct SweepProgressEvent {
  std::uint64_t done = 0;         ///< indices completed so far (incl. restored)
  std::uint64_t total = 0;        ///< indices the sweep was asked for
  std::uint64_t quarantined = 0;  ///< failures recorded so far
  std::uint64_t retries = 0;      ///< retry attempts spent so far
};

/// Knobs of the checkpoint layer. An empty `dir` disables checkpointing
/// entirely (the sweep still runs, nothing durable is written).
struct CheckpointOptions {
  std::string dir;
  /// Realizations per journal record (the at-most-this-much-work-is-lost
  /// bound); slice boundaries are derived from the MISSING set, so a
  /// resumed run may legally use a different interval.
  std::size_t interval = 128;
  /// Attempt to resume from existing checkpoint state.
  bool resume = false;
  /// Crash-injection spec: "" defers to the CT_CRASH environment variable,
  /// "none" is explicitly off, anything else is CrashProfile::parse'd.
  std::string crash_spec;
  /// Optional observer called after every completed slice (durable or
  /// not: it fires with an empty `dir` too, where the sweep still walks
  /// `interval`-sized slices). Runs on the sweep thread between slices —
  /// keep it cheap, and never let it throw.
  std::function<void(const SweepProgressEvent&)> on_progress;
};

/// Identity of a resumable sweep: the content digest binding the journal
/// to its inputs, the realization count, and one key per outcome series
/// (a single-distribution sweep has exactly one).
struct SweepSpec {
  std::string digest;
  std::size_t count = 0;
  std::vector<std::string> series;
};

/// Outcome histogram of one series (green/orange/red/gray).
using SeriesCounts = std::array<std::uint64_t, 4>;

/// Merged sweep state: what a checkpoint persists and a resume restores.
struct SweepProgress {
  /// Completed [begin, end) index ranges — disjoint, ascending, coalesced.
  /// Quarantined indices count as completed (attempted, outcome recorded
  /// in `failures`), so a resume never re-runs them.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> done;
  std::vector<SeriesCounts> series;
  std::vector<FailureRecord> failures;  ///< ascending by realization index
  std::uint64_t retries = 0;

  /// Total indices covered by `done`.
  std::uint64_t completed() const noexcept;
  /// Merges [begin, end); false (state unchanged) on overlap with `done`
  /// — a crash cannot produce overlap, so the caller treats it as
  /// corruption.
  bool merge_range(std::uint64_t begin, std::uint64_t end);
  /// The complement of `done` within [0, count): the indices a resumed
  /// sweep still needs to schedule, ascending.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> missing(
      std::uint64_t count) const;
};

/// How a resume attempt went.
enum class ResumeStatus {
  kColdStart,  ///< nothing usable on disk (or resume not requested)
  kResumed,    ///< journal validated and replayed
  kStale,      ///< digest/count/series mismatch — different knobs; cold start
  kCorrupt,    ///< interior corruption (typed kCheckpointCorrupt); cold start
};

/// Stable name ("cold-start", "resumed", ...) for logs and reports.
std::string_view resume_status_name(ResumeStatus status) noexcept;

struct ResumeInfo {
  ResumeStatus status = ResumeStatus::kColdStart;
  std::string detail;       ///< operator-facing reason (logged)
  std::uint64_t restored = 0;  ///< indices restored from the checkpoint
  bool torn_tail_dropped = false;  ///< a torn final record was discarded
};

/// The durable side of a resumable sweep. NOT thread-safe: all journal
/// calls happen on the sweep's calling thread, in slice order (which is
/// also what makes the crash-site counter deterministic).
class SweepJournal {
 public:
  /// On-disk format version; bump on any layout or checksum change.
  static constexpr int kFormatVersion = 2;

  SweepJournal(CheckpointOptions options, SweepSpec spec);
  ~SweepJournal();
  SweepJournal(const SweepJournal&) = delete;
  SweepJournal& operator=(const SweepJournal&) = delete;

  /// Validates and replays the journal into `progress` (which must arrive
  /// empty), keeping the validated records for begin(). Never throws:
  /// staleness and corruption are reported in the ResumeInfo (and logged as
  /// structured events) and leave `progress` empty for a cold start.
  ResumeInfo load(SweepProgress& progress);

  /// Atomically publishes the header plus the records load() validated
  /// (none on a cold, stale or corrupt start), then opens the journal for
  /// appending. Returns false when the directory/file cannot be prepared
  /// (checkpointing is then off for this run — soft, like the cache).
  bool begin();

  /// Appends one completed-slice record (the DELTA for [begin, end)) and
  /// fsyncs it. Soft-fails like begin().
  bool append(std::uint64_t begin, std::uint64_t end,
              const std::vector<SeriesCounts>& delta,
              const std::vector<FailureRecord>& slice_failures,
              std::uint64_t retries_delta);

  /// Sweep fully completed: removes the journal (the result now lives in
  /// the result cache / the caller's output, not the checkpoint).
  void finish();

  /// Closes the journal fd without removing the file (interrupted sweep:
  /// the state stays on disk for the next --resume). Called by the
  /// destructor.
  void close();

  std::string journal_path() const;

  /// Durable writes performed by THIS run (the begin() publish + record
  /// appends) — the denominator of checkpoint-overhead accounting.
  std::uint64_t writes() const noexcept { return writes_; }

 private:
  std::string header_text() const;
  std::string header_checksum() const;

  CheckpointOptions options_;
  SweepSpec spec_;
  CrashProfile crash_;
  int fd_ = -1;                 ///< journal fd (O_APPEND) while open
  std::string replayed_;        ///< verbatim text of the validated records
  std::uint64_t next_seq_ = 1;  ///< sequence number of the next record
  std::uint64_t writes_ = 0;
};

}  // namespace ct::runtime
