// Deterministic fault injection for the HOST runtime — the mirror image of
// PR 1's chaos harness, aimed at the ensemble runner itself instead of the
// simulated SCADA stack. A profile makes the failure-containment paths
// (per-task capture, retry-then-quarantine, NaN guards, cache-write
// fallback) deterministically reachable in tests and CI without patching
// any production kernel.
//
// Spec grammar (CT_FAULT environment variable, or EnsembleOptions.fault_spec):
//
//   directive[;directive...]
//   directive := throw:KEYS | nan:KEYS | delay:KEYS | cache-write
//   KEYS     := every=N[,offset=K][,attempts=A][,ms=M]
//
//   throw:every=20             every 20th realization throws (index % 20 == 0)
//   nan:every=25,offset=3      realization 3, 28, 53, ... produces NaN WSE
//   delay:every=10,ms=50       every 10th realization stalls 50 ms
//   throw:every=5,attempts=1   fires only on the FIRST attempt: the retry
//                              (same seed) succeeds — exercises the retry
//                              path without quarantining anything
//   cache-write                every result-cache disk write fails (soft)
//   none                       explicitly empty (ignores CT_FAULT)
//
// Every rule is a pure function of (realization index, attempt number), so
// the set of injected failures — and therefore the partial distribution
// and the quarantine ledger — is bit-identical at any --jobs value.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace ct::runtime {

/// One deterministic injection site: fires on realization indices with
/// `index % every == offset`, on the first `attempts` attempts only.
struct FaultRule {
  std::uint64_t every = 0;  ///< 0 = rule disabled
  std::uint64_t offset = 0;
  /// Attempts the rule fires on (1 = first attempt only, so one retry
  /// heals it); default fires on every attempt, forcing quarantine.
  unsigned attempts = std::numeric_limits<unsigned>::max();

  bool enabled() const noexcept { return every != 0; }
  bool fires(std::uint64_t index, unsigned attempt) const noexcept {
    return enabled() && index % every == offset % every && attempt <= attempts;
  }
};

/// Parsed CT_FAULT profile. Default-constructed = no faults.
struct RuntimeFaultProfile {
  FaultRule throw_rule;  ///< injected ct::Error{kFaultInjected}
  FaultRule nan_rule;    ///< NaN planted in the realization's surge output
  FaultRule delay_rule;  ///< cooperative stall (polls the cancellation token)
  std::chrono::milliseconds delay{50};
  bool cache_write_failure = false;

  bool any() const noexcept {
    return throw_rule.enabled() || nan_rule.enabled() ||
           delay_rule.enabled() || cache_write_failure;
  }

  /// Parses a spec; "" and "none"/"off" yield an empty profile. Throws
  /// ct::Error{kParse} on a malformed directive — a typo'd CT_FAULT must
  /// be loud, not a silently healthy run.
  static RuntimeFaultProfile parse(std::string_view spec);

  /// Profile from the CT_FAULT environment variable (empty when unset).
  static RuntimeFaultProfile from_env();
};

// --- process-death injection (CT_CRASH) ------------------------------------
//
// The mirror of CT_FAULT one level up: instead of failing a task, the
// PROCESS dies (`_exit`, no unwinding, no flushing — exactly what a
// preempted VM or OOM kill does) at a deterministic crash point inside the
// checkpoint writer. Spec grammar (CT_CRASH environment variable, or
// CheckpointOptions::crash_spec):
//
//   kind:at=N
//   kind := before | torn | after
//
//   before:at=3   die at the 3rd checkpoint site, before any byte is written
//   torn:at=3     die mid-write: a prefix of the record reaches the disk
//                 (the torn-tail case replay must silently drop)
//   after:at=3    die after the full write/fsync (and, for the journal
//                 publish, after the rename + directory fsync) completed
//
// The site counter increments once per checkpoint flush in execution
// order, which is deterministic (flushes happen on the sweep thread in
// ascending slice order), so a given spec kills the process at exactly one
// reproducible instant at any --jobs value.

/// Where inside a checkpoint flush the process dies.
enum class CrashPoint {
  kNone = 0,
  kBeforeWrite,   ///< before any byte of the record/journal is written
  kTornWrite,     ///< after a PREFIX of the record hit the disk
  kAfterWrite,    ///< after write + fsync (+ rename + dir fsync) completed
};

/// Parsed CT_CRASH profile. Default-constructed = never crashes.
struct CrashProfile {
  CrashPoint point = CrashPoint::kNone;
  std::uint64_t at = 0;  ///< 1-based site counter value the crash fires on

  /// Exit code of an injected crash; distinct from every real exit code so
  /// the harness can tell "died as scheduled" from "died of a bug".
  static constexpr int kExitCode = 86;

  bool enabled() const noexcept {
    return point != CrashPoint::kNone && at != 0;
  }
  bool fires(CrashPoint site_point, std::uint64_t site) const noexcept {
    return enabled() && site_point == point && site == at;
  }

  /// Parses a spec; "" and "none"/"off" yield an empty profile. Throws
  /// ct::Error{kParse} on a malformed directive.
  static CrashProfile parse(std::string_view spec);

  /// Profile from the CT_CRASH environment variable (empty when unset).
  static CrashProfile from_env();
};

}  // namespace ct::runtime
