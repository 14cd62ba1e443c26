// Shared driver for the figure-regeneration benches: each bench binary
// reproduces one of the paper's evaluation figures (operational profiles
// of the five SCADA architectures under one threat scenario and siting),
// prints measured-vs-paper tables, and reports the worst probability
// delta.
//
// Since the ensemble runtime landed, every figure bench also measures the
// runtime itself: the sweep runs once serially (--jobs 1, cache off) and
// once on the work-stealing pool, asserts the two outcome distributions
// are bit-identical, replays the sweep warm to measure the result-cache
// hit rate, and appends the numbers to BENCH_runtime.json so the perf
// trajectory is tracked per commit.
//
// Realization count defaults to the paper's 1000; set CT_BENCH_REALIZATIONS
// to override (e.g. 200 for a quick pass). CT_BENCH_JOBS sets the parallel
// worker count (default 8).
#pragma once

#include <cstdint>
#include <string>

#include "threat/scenario.h"

namespace ct::bench {

/// Which backup control center the siting uses (the paper's two variants).
enum class Siting {
  kWaiau,  ///< Honolulu + Waiau + DRFortress (Figs. 6-9)
  kKahe,   ///< Honolulu + Kahe + DRFortress (Figs. 10-11)
};

/// Number of realizations to run (CT_BENCH_REALIZATIONS or 1000).
std::size_t bench_realizations();

/// Parallel worker count for the runtime measurement (CT_BENCH_JOBS or 8).
unsigned bench_jobs();

/// One serial-vs-parallel runtime measurement, recorded per bench binary.
struct RuntimeBenchRecord {
  std::string name;            ///< bench binary name ("bench_fig6", ...)
  std::size_t realizations = 0;
  unsigned jobs = 0;           ///< parallel worker count
  double serial_s = 0.0;       ///< cold sweep, --jobs 1, cache off
  double parallel_s = 0.0;     ///< cold sweep on the pool
  double warm_s = 0.0;         ///< repeated sweep served from the cache
  bool identical = false;      ///< parallel outcomes bit-identical to serial
  std::uint64_t cache_lookups = 0;  ///< result-cache lookups, warm pass only
  std::uint64_t cache_hits = 0;     ///< result-cache hits, warm pass only

  // Fault-isolated runtime (PR 6): the same sweep under an injected fault
  // profile (degraded path, quarantine accounting included).
  double fault_s = 0.0;  ///< guarded sweep incl. generation, faults injected
  std::size_t fault_quarantined = 0;  ///< realizations quarantined
  std::uint64_t fault_retries = 0;    ///< retry attempts spent

  // Checkpointed runtime (PR 7): the same fused sweep through
  // run_resumable with checkpointing off (baseline) and with the journal
  // on at three intervals; overhead is fsync-bound, so it shrinks as the
  // interval grows.
  double resumable_s = 0.0;      ///< run_resumable, checkpointing off
  double checkpoint32_s = 0.0;   ///< journal on, --checkpoint-interval 32
  double checkpoint_s = 0.0;     ///< journal on, default interval (128)
  double checkpoint512_s = 0.0;  ///< journal on, --checkpoint-interval 512
  std::uint64_t checkpoint_writes = 0;  ///< durable writes, default interval

  double speedup() const noexcept {
    return parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
  }
  double warm_hit_rate() const noexcept {
    return cache_lookups == 0
               ? 0.0
               : static_cast<double>(cache_hits) /
                     static_cast<double>(cache_lookups);
  }
  /// Durability cost at the default checkpoint interval relative to the
  /// same sweep with checkpointing off (acceptance bound: <= 3%).
  double checkpoint_overhead() const noexcept {
    return resumable_s > 0.0 && checkpoint_s > 0.0
               ? checkpoint_s / resumable_s - 1.0
               : 0.0;
  }
};

/// Merges the record into `path` (default BENCH_runtime.json in the cwd):
/// one JSON object keyed by record name, one record per line, existing
/// records for other benches preserved. An unreadable file is rebuilt.
/// Every write_*_bench_record appends the same "host" stamp (CPU model,
/// nproc, compiler, build type, git SHA and dirty flag).
void write_runtime_bench_record(const RuntimeBenchRecord& record,
                                const std::string& path = "BENCH_runtime.json");

/// DES engine throughput of the pooled engine (slab events, message
/// freelist, indexed quorum state). Recorded by bench_micro ("bench_micro":
/// event loop + quorum round + chaos-style sweep) and bench_des
/// ("bench_des": the A4 flood-mask corpus). Outcome identity is pinned by
/// des_fastpath_test's golden digests, not here.
struct DesBenchRecord {
  std::string name;              ///< record key
  std::uint64_t runs = 0;        ///< simulated runs timed
  std::uint64_t events = 0;      ///< events processed over those runs
  double fast_s = 0.0;           ///< run corpus wall time
  double quorum_round_ms = 0.0;  ///< BFT request->quorum->execute round
  double sweep_fast_s = 0.0;     ///< fault-plan sweep, arena reuse
  std::uint64_t sweep_runs = 0;

  double fast_events_per_s() const noexcept {
    return fast_s > 0.0 ? static_cast<double>(events) / fast_s : 0.0;
  }
};

/// Same line-merge format, separate BENCH_des.json file tracking the DES
/// engine's throughput trajectory.
void write_des_bench_record(const DesBenchRecord& record,
                            const std::string& path = "BENCH_des.json");

/// Observability overhead (PR 10): per-op cost of the ct_obs primitives
/// and the enabled-vs-disabled cost of the instrumented DES hot loop.
/// Recorded by bench_micro; the <2% enabled-but-idle bound is asserted in
/// its exit code.
struct ObsBenchRecord {
  std::string name;                  ///< record key ("bench_micro")
  double counter_inc_ns = 0.0;       ///< Counter::inc, registry enabled
  double counter_disabled_ns = 0.0;  ///< Counter::inc, registry disabled
  double histogram_observe_ns = 0.0; ///< Histogram::observe, enabled
  double span_ns = 0.0;              ///< Span ctor+dtor, tracing enabled
  double span_idle_ns = 0.0;         ///< Span ctor+dtor, tracing off
  std::uint64_t des_pairs = 0;       ///< paired off/on DES runs
  double des_obs_off_s = 0.0;        ///< median run, CT_OBS off
  double des_obs_on_s = 0.0;         ///< median run, CT_OBS on
  /// Enabled-but-idle cost of the instrumentation on the DES hot loop
  /// (0.02 = 2% slower): the median of the per-pair relative overheads
  /// and its distribution-free 95% confidence interval.
  double des_overhead = 0.0;
  double des_overhead_lo = 0.0;
  double des_overhead_hi = 0.0;
  bool identical = false;            ///< outcomes bit-identical on vs off
};

/// Same line-merge format, separate BENCH_obs.json file tracking the
/// observability overhead trajectory.
void write_obs_bench_record(const ObsBenchRecord& record,
                            const std::string& path = "BENCH_obs.json");

/// Runs the figure bench: returns 0 when the parallel outcome
/// distributions are bit-identical to the serial ones (fidelity to the
/// paper is still reported, not asserted — EXPERIMENTS.md records the
/// deltas), 1 on a determinism violation.
int run_figure_bench(const std::string& figure_id,
                     threat::ThreatScenario scenario, Siting siting);

}  // namespace ct::bench
