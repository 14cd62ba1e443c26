// ct_obs span tracer: RAII phase spans with monotonic timestamps, parent
// linkage, and bounded per-thread ring buffers.
//
// A Span records (name, start, duration, id, parent id, thread index) into
// the calling thread's ring when it closes. Rings are bounded: once full
// they overwrite the oldest record and bump a process-wide dropped-span
// counter, so tracing a long sweep has a hard memory ceiling. Parent
// linkage comes from a thread-local stack of open spans — nesting within a
// thread is captured, cross-thread causality intentionally is not (span
// names carry the phase, which is what the exporters visualize).
//
// Spans fire at phase granularity (per realization batch, per DES run, per
// service request), NOT per event, so the per-close ring mutex is
// uncontended in practice and TSan-clean by construction.
//
// Exporter: write_chrome_trace() emits the Chrome trace-event JSON that
// chrome://tracing and Perfetto load directly.
//
// Gating mirrors metrics: CT_OBS_DISABLED compiles spans out entirely;
// at runtime tracing is OFF by default and enabled by the CT_OBS_TRACE
// environment variable or set_trace_enabled(). Like the registry, the
// tracer never feeds back into any computation — determinism oracles pass
// with tracing on and off (tests/obs_test.cpp proves it).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace ct::obs {

/// One closed span. `parent` is the id of the enclosing span on the same
/// thread (0 = root); `tid` is a small stable per-thread index assigned in
/// ring-creation order, not the OS thread id.
struct SpanRecord {
  std::string name;
  std::uint64_t start_ns = 0;  ///< monotonic, relative to the trace epoch
  std::uint64_t dur_ns = 0;    ///< 0 for instant events
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint32_t tid = 0;
};

/// Runtime tracing gate: CT_OBS_TRACE environment variable at first use
/// (default OFF — tracing is opt-in, unlike metrics), overridable by
/// set_trace_enabled(). Constant false under CT_OBS_DISABLED.
bool tracing_enabled() noexcept;
void set_trace_enabled(bool on) noexcept;

/// Ring capacity (in spans) for per-thread rings created AFTER this call;
/// existing rings keep their capacity. Tests use a tiny capacity plus a
/// fresh thread to exercise overflow deterministically.
void set_ring_capacity(std::size_t capacity) noexcept;

/// RAII span: opens on construction, records into the thread ring on
/// destruction. Inert (two loads, no stores) when tracing is off. `name`
/// must be a string literal or otherwise outlive the span.
class Span {
 public:
  explicit Span(const char* name) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;         // nullptr when inert
  std::uint64_t start_ns_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
};

/// Records a zero-duration event (quarantine, retry, shed, ...) at the
/// current instant, parented to the innermost open span.
void trace_instant(const char* name) noexcept;

/// Everything the rings currently hold, in (start_ns, id) order, plus the
/// process-wide count of spans overwritten by ring overflow.
struct TraceDump {
  std::vector<SpanRecord> spans;
  std::uint64_t dropped = 0;
};

/// Snapshots live + retired rings. Does not clear them.
TraceDump collect_trace();

/// Clears all rings, retired records and the dropped counter (span ids
/// keep advancing). Test isolation only.
void reset_trace_for_test();

/// Chrome trace-event JSON ({"traceEvents":[...]}): complete "X" events
/// with microsecond ts/dur, span id/parent under "args".
void write_chrome_trace(std::ostream& out, const TraceDump& dump);

}  // namespace ct::obs
