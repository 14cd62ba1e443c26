#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "util/json_writer.h"

namespace ct::obs {

namespace {

constexpr std::size_t kDefaultRingCapacity = 4096;

std::uint64_t now_ns() noexcept {
  // Relative to a process-lifetime epoch so exported timestamps are small.
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

/// Bounded per-thread span ring. The mutex is taken per span CLOSE (phase
/// granularity) and by collect_trace(); it is uncontended on the hot path.
struct TraceRing {
  std::mutex mutex;
  std::vector<SpanRecord> slots;  // circular once full
  std::size_t cap;  // exact bound (vector capacity may over-allocate)
  std::size_t next = 0;
  bool wrapped = false;
  std::uint32_t tid = 0;

  explicit TraceRing(std::size_t capacity, std::uint32_t thread_index)
      : cap(capacity == 0 ? 1 : capacity), tid(thread_index) {
    slots.reserve(cap);
  }

  /// Appends, overwriting the oldest record once full. Returns true when a
  /// record was overwritten (caller bumps the dropped counter).
  bool push(SpanRecord&& record) {
    std::lock_guard<std::mutex> lock(mutex);
    if (slots.size() < cap) {
      slots.push_back(std::move(record));
      return false;
    }
    slots[next] = std::move(record);
    next = (next + 1) % slots.size();
    wrapped = true;
    return true;
  }

  /// In-insertion-order copy of the ring contents (oldest first).
  void snapshot_into(std::vector<SpanRecord>& out) {
    std::lock_guard<std::mutex> lock(mutex);
    if (!wrapped) {
      out.insert(out.end(), slots.begin(), slots.end());
      return;
    }
    out.insert(out.end(), slots.begin() + static_cast<std::ptrdiff_t>(next),
               slots.end());
    out.insert(out.end(), slots.begin(),
               slots.begin() + static_cast<std::ptrdiff_t>(next));
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex);
    slots.clear();
    next = 0;
    wrapped = false;
  }
};

/// Global tracer state. Leaked like the metrics registry: thread-exit
/// retirement may run after main() returns.
struct Tracer {
  std::mutex mutex;                  // guards rings + retired
  std::vector<TraceRing*> rings;     // live per-thread rings
  std::vector<SpanRecord> retired;   // rings of exited threads
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> next_span_id{1};
  std::atomic<std::uint32_t> next_tid{1};
  std::atomic<std::size_t> ring_capacity{kDefaultRingCapacity};
};

Tracer& tracer() {
  static Tracer* t = new Tracer();
  return *t;
}

bool env_trace_enabled() {
  const char* v = std::getenv("CT_OBS_TRACE");
  if (v == nullptr) return false;
  return !(std::strcmp(v, "0") == 0 || std::strcmp(v, "off") == 0 ||
           std::strcmp(v, "false") == 0);
}

std::atomic<bool>& trace_flag() {
  static std::atomic<bool> flag{env_trace_enabled()};
  return flag;
}

/// Per-thread ring handle: registers with the tracer on first span and
/// moves the ring's contents into `retired` at thread exit so spans from
/// joined threads survive until collect_trace().
struct RingHandle {
  TraceRing* ring;

  RingHandle() {
    Tracer& t = tracer();
    ring = new TraceRing(t.ring_capacity.load(std::memory_order_relaxed),
                         t.next_tid.fetch_add(1, std::memory_order_relaxed));
    std::lock_guard<std::mutex> lock(t.mutex);
    t.rings.push_back(ring);
  }
  ~RingHandle() {
    Tracer& t = tracer();
    std::lock_guard<std::mutex> lock(t.mutex);
    ring->snapshot_into(t.retired);
    t.rings.erase(std::find(t.rings.begin(), t.rings.end(), ring));
    delete ring;
  }
};

TraceRing& local_ring() {
  thread_local RingHandle handle;
  return *handle.ring;
}

/// Innermost open span id on this thread (0 = none). A plain thread_local
/// — only the owning thread ever touches it.
thread_local std::uint64_t t_open_span = 0;

void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t dur_ns, std::uint64_t id,
                 std::uint64_t parent) {
  TraceRing& ring = local_ring();
  SpanRecord record;
  record.name = name;
  record.start_ns = start_ns;
  record.dur_ns = dur_ns;
  record.id = id;
  record.parent = parent;
  record.tid = ring.tid;
  if (ring.push(std::move(record))) {
    tracer().dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

bool tracing_enabled() noexcept {
  return compiled_in() && trace_flag().load(std::memory_order_relaxed);
}

void set_trace_enabled(bool on) noexcept {
  trace_flag().store(on, std::memory_order_relaxed);
}

void set_ring_capacity(std::size_t capacity) noexcept {
  tracer().ring_capacity.store(capacity == 0 ? 1 : capacity,
                               std::memory_order_relaxed);
}

Span::Span(const char* name) noexcept : name_(nullptr) {
  if (!tracing_enabled()) return;
  name_ = name;
  start_ns_ = now_ns();
  id_ = tracer().next_span_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_open_span;
  t_open_span = id_;
}

Span::~Span() {
  if (name_ == nullptr) return;
  t_open_span = parent_;
  record_span(name_, start_ns_, now_ns() - start_ns_, id_, parent_);
}

void trace_instant(const char* name) noexcept {
  if (!tracing_enabled()) return;
  const std::uint64_t id =
      tracer().next_span_id.fetch_add(1, std::memory_order_relaxed);
  record_span(name, now_ns(), 0, id, t_open_span);
}

TraceDump collect_trace() {
  Tracer& t = tracer();
  TraceDump dump;
  {
    std::lock_guard<std::mutex> lock(t.mutex);
    dump.spans = t.retired;
    for (TraceRing* ring : t.rings) ring->snapshot_into(dump.spans);
  }
  dump.dropped = t.dropped.load(std::memory_order_relaxed);
  std::sort(dump.spans.begin(), dump.spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.id < b.id;
            });
  return dump;
}

void reset_trace_for_test() {
  Tracer& t = tracer();
  std::lock_guard<std::mutex> lock(t.mutex);
  t.retired.clear();
  for (TraceRing* ring : t.rings) ring->clear();
  t.dropped.store(0, std::memory_order_relaxed);
}

void write_chrome_trace(std::ostream& out, const TraceDump& dump) {
  util::JsonWriter w(out);
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (const SpanRecord& s : dump.spans) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("ph", "X");
    w.kv("ts", static_cast<double>(s.start_ns) / 1000.0);
    w.kv("dur", static_cast<double>(s.dur_ns) / 1000.0);
    w.kv("pid", 1);
    w.kv("tid", s.tid);
    w.key("args");
    w.begin_object();
    w.kv("id", s.id);
    w.kv("parent", s.parent);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.kv("droppedSpans", dump.dropped);
  w.end_object();
  out << "\n";
}

}  // namespace ct::obs
