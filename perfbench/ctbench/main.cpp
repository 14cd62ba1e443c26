// ctbench: the repository benchmark program.
//
//   ctbench --workload <paper-cold|serve-mixed|chaos-sweep|paper-resume>
//           --seed <n> --seconds <s> --trace <0|1> --tmp <dir>
//           [--trace-out <file.json>] [--golden <hex digest>]
//
// Prints human-readable lines, then one "ctbench-record {...}" line with
// every metric the workload measured, then as the LAST line the result
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. A failed
// output gate marks the run incorrect and exits 1.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "obs/trace.h"
#include "workloads.h"

namespace ctbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (run.py checks the printed keys).
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"sweep_s", "s"},
    {"sweep_serial_s", "s"},
    {"parallel_efficiency", "ratio"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricSpec> kPerLayer = {
    // Workload-level figures whose meaning exists on one workload only.
    {"warm_ms", "ms"},
    {"resume_s", "s"},
    {"req_p50_ms", "ms"},
    {"req_tail_ms", "ms"},
    {"req_tail_pct", "pct"},
    {"req_samples", "count"},
    {"goodput_rps", "1/s"},
    {"slo_met_ratio", "ratio"},
    {"gen_lag_ms", "ms"},
    {"failed_ratio", "ratio"},
    // Replay of the realization pipeline (paper-cold traced run).
    {"storm.track_us", "us"},
    {"surge.realization_us", "us"},
    {"surge.envelope_us", "us"},
    {"surge.envelope_share", "ratio"},
    {"mesh.smoothing_us", "us"},
    {"surge.alongshore_us", "us"},
    {"surge.harbor_us", "us"},
    {"surge.asset_bind_us", "us"},
    {"surge.active_nodes", "count"},
    {"core.classify_us", "us"},
    {"obs.replay_self_us", "us"},
    // Runtime: pool, cache, checkpoint.
    {"runtime.overhead_s", "s"},
    {"runtime.pool_tasks", "count"},
    {"runtime.pool_steals", "count"},
    {"runtime.pool_inline_runs", "count"},
    {"runtime.pool_queue_peak", "count"},
    {"runtime.slice_ms", "ms"},
    {"runtime.cache_lookups", "count"},
    {"runtime.cache_hit_ratio", "ratio"},
    {"runtime.cache_disk_hits", "count"},
    {"runtime.cache_lookup_us", "us"},
    {"runtime.checkpoint_flushes", "count"},
    {"runtime.checkpoint_flush_us", "us"},
    {"runtime.journal_bytes", "bytes"},
    {"runtime.restored", "count"},
    {"runtime.executed", "count"},
    // Service.
    {"service.exec_ms.analyze_hit", "ms"},
    {"service.exec_ms.analyze_miss", "ms"},
    {"service.exec_ms.downtime", "ms"},
    {"service.exec_ms.siting", "ms"},
    {"service.server_ms", "ms"},
    {"service.queue_wait_ms", "ms"},
    {"service.wire_ms", "ms"},
    {"service.shed", "count"},
    {"service.failed", "count"},
    // DES.
    {"sim.events_per_s", "1/s"},
    {"sim.run_us", "us"},
    {"sim.runs", "count"},
    {"sim.events", "count"},
    {"sim.messages", "count"},
    {"sim.slab_grows", "count"},
    {"sim.msg_pool_misses", "count"},
    // Observability.
    {"obs.trace_overhead", "s"},
    {"obs.spans_dropped", "count"},
};

void usage() {
  std::cerr << "usage: ctbench --workload <paper-cold|serve-mixed|"
               "chaos-sweep|paper-resume> --seed <n> --seconds <s> "
               "--trace <0|1> --tmp <dir> [--trace-out <file>] "
               "[--golden <digest>]\n";
}

bool parse(int argc, char** argv, Context& ctx) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        ctx.workload = value;
      } else if (flag == "--seed") {
        ctx.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        ctx.seconds = std::stod(value);
      } else if (flag == "--trace") {
        ctx.trace = value == "1";
      } else if (flag == "--tmp") {
        ctx.tmp = value;
      } else if (flag == "--trace-out") {
        ctx.trace_out = value;
      } else if (flag == "--golden") {
        ctx.golden = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !ctx.workload.empty() && !ctx.tmp.empty() && ctx.seconds > 0;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.15g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// {"name": {"value": v, "unit": u}, ...} over `specs`, in their order.
std::string metrics_json(const Sheet& sheet,
                         const std::vector<MetricSpec>& specs) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    os << (i == 0 ? "" : ", ") << json_string(specs[i].name)
       << ": {\"value\": " << number(sheet.get(specs[i].name))
       << ", \"unit\": " << json_string(specs[i].unit) << "}";
  }
  os << "}";
  return os.str();
}

/// Writes the traced run's Chrome trace, gates on dropped spans, and notes
/// each span name's count, total and self time.
void finish_trace(const Context& ctx, Sheet& sheet) {
  const obs::TraceDump dump = obs::collect_trace();
  sheet.set("obs.spans_dropped", static_cast<double>(dump.dropped), "count");
  sheet.gate(dump.dropped == 0, "traced run dropped spans (ring too small)");
  if (!ctx.trace_out.empty()) {
    std::ofstream out(ctx.trace_out);
    obs::write_chrome_trace(out, dump);
    sheet.gate(static_cast<bool>(out), "cannot write " + ctx.trace_out);
  }
  // Self time per span name: a span's duration minus its children's.
  std::map<std::uint64_t, std::uint64_t> child_ns;
  for (const obs::SpanRecord& r : dump.spans) {
    if (r.parent != 0) child_ns[r.parent] += r.dur_ns;
  }
  struct Totals {
    std::uint64_t count = 0, total_ns = 0, self_ns = 0;
  };
  std::map<std::string, Totals> by_name;
  for (const obs::SpanRecord& r : dump.spans) {
    Totals& t = by_name[r.name];
    ++t.count;
    t.total_ns += r.dur_ns;
    const auto it = child_ns.find(r.id);
    const std::uint64_t kids = it == child_ns.end() ? 0 : it->second;
    t.self_ns += r.dur_ns > kids ? r.dur_ns - kids : 0;
  }
  sheet.note("trace: " + std::to_string(dump.spans.size()) + " spans, " +
             std::to_string(dump.dropped) + " dropped");
  for (const auto& [name, t] : by_name) {
    sheet.note("  span " + name + ": n=" + std::to_string(t.count) +
               " total_ms=" + number(static_cast<double>(t.total_ns) / 1e6) +
               " self_ms=" + number(static_cast<double>(t.self_ns) / 1e6));
  }
}

}  // namespace
}  // namespace ctbench

int main(int argc, char** argv) {
  using namespace ctbench;
  Context ctx;
  if (!parse(argc, argv, ctx)) {
    usage();
    return 2;
  }
  ctx.nproc = std::max(1u, std::thread::hardware_concurrency());

  // The program's default observability: registry on, tracing off. A
  // traced run turns tracing on around the phases it attributes.
  obs::set_enabled(true);
  obs::set_trace_enabled(false);
  if (ctx.trace) obs::set_ring_capacity(std::size_t{1} << 16);

  Sheet sheet;
  try {
    make_dirs(ctx.tmp);
    if (ctx.workload == "paper-cold") {
      run_paper_cold(ctx, sheet);
    } else if (ctx.workload == "paper-resume") {
      run_paper_resume(ctx, sheet);
    } else if (ctx.workload == "serve-mixed") {
      run_serve_mixed(ctx, sheet);
    } else if (ctx.workload == "chaos-sweep") {
      run_chaos_sweep(ctx, sheet);
    } else {
      usage();
      return 2;
    }
    if (ctx.trace) finish_trace(ctx, sheet);
  } catch (const std::exception& e) {
    std::cerr << "ctbench: " << ctx.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  sheet.set("peak_rss_mb", peak_rss_mb(), "MiB");
  if (sheet.attempted() > 0) {
    sheet.set("failed_ratio",
              static_cast<double>(sheet.failed()) /
                  static_cast<double>(sheet.attempted()),
              "ratio");
  }
  for (const MetricSpec& m : kEndToEnd) {
    sheet.gate(sheet.has(m.name) && sheet.get(m.name) > 0,
               std::string("end-to-end metric not measured: ") + m.name);
  }

  std::cout << "ctbench " << ctx.workload << " seed=" << ctx.seed
            << " seconds=" << ctx.seconds << " trace=" << ctx.trace
            << " nproc=" << ctx.nproc << "\n";
  for (const std::string& line : sheet.notes()) std::cout << line << "\n";
  for (const auto& [name, entry] : sheet.metrics()) {
    std::cout << "metric " << name << " = " << number(entry.value) << " "
              << entry.unit << "\n";
  }
  for (const std::string& what : sheet.gate_failures()) {
    std::cout << "GATE FAILED: " << what << "\n";
  }

  std::ostringstream record;
  record << "{\"workload\": " << json_string(ctx.workload)
         << ", \"seed\": " << ctx.seed << ", \"trace\": " << ctx.trace
         << ", \"nproc\": " << ctx.nproc
         << ", \"compiler\": " << json_string(CTBENCH_COMPILER)
         << ", \"build_type\": " << json_string(CTBENCH_BUILD_TYPE)
         << ", \"correct\": " << (sheet.correct() ? "true" : "false")
         << ", \"metrics\": ";
  std::vector<MetricSpec> measured;
  for (const auto& [name, entry] : sheet.metrics()) {
    measured.push_back({name.c_str(), entry.unit.c_str()});
  }
  record << metrics_json(sheet, measured) << "}";
  std::cout << "ctbench-record " << record.str() << "\n";

  const std::string metrics =
      metrics_json(sheet, ctx.trace ? kPerLayer : kEndToEnd);
  std::cout << "{\"correct\": " << (sheet.correct() ? "true" : "false")
            << ", \"attempted\": " << std::max<std::uint64_t>(1, sheet.attempted())
            << ", \"failed\": " << sheet.failed() << ", \"metrics\": " << metrics
            << "}" << std::endl;
  return sheet.correct() ? 0 : 1;
}
