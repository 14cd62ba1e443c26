// serve-mixed: an open-loop, seeded request schedule against an
// in-process service::Server on a Unix socket, sent by service::Client
// connections from this process. Every response is checked byte-for-byte
// against a local service::execute_request of the same Request.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "service/client.h"
#include "service/exec.h"
#include "service/server.h"
#include "util/rng.h"
#include "workloads.h"

namespace ctbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Offered load. Sized to about half of what the single executor serves
/// of this mix on a 4-core x86 host (mean execution ~12 ms, so capacity
/// ~80 requests/s): the queue stays short and the tail shows service time
/// and head-of-line blocking behind misses, not overload.
constexpr double kRatePerSecond = 40.0;
/// Latency limit of a request, measured from its due time.
constexpr double kLimitMs = 500.0;
/// Realizations of a cache-miss analyze.
constexpr std::uint64_t kMissRealizations = 16;

/// The request mix (shares sum to 1).
struct Mix {
  double analyze_hit = 0.70;
  double downtime = 0.08;
  double siting = 0.08;
  double stats = 0.06;
  // The rest: cache-miss analyze with a fresh sea-level offset.
};

enum class Kind { kAnalyzeHit, kDowntime, kSiting, kStats, kAnalyzeMiss };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kAnalyzeHit: return "analyze_hit";
    case Kind::kDowntime: return "downtime";
    case Kind::kSiting: return "siting";
    case Kind::kStats: return "stats";
    case Kind::kAnalyzeMiss: return "analyze_miss";
  }
  return "?";
}

struct Planned {
  double due_s = 0.0;
  Kind kind = Kind::kAnalyzeHit;
  service::Request request;
};

/// The seeded open-loop schedule: Poisson arrivals over `seconds`.
std::vector<Planned> make_schedule(std::uint64_t seed, double seconds) {
  ct::util::Rng rng(seed, "ctbench-serve-mixed");
  const Mix mix;
  std::vector<Planned> plan;
  double t = 0.0;
  for (;;) {
    t += rng.exponential(1.0 / kRatePerSecond);
    if (t >= seconds) break;
    Planned p;
    p.due_s = t;
    const double u = rng.uniform();
    double edge = mix.analyze_hit;
    p.request = analyze_request(/*no_cache=*/false);
    if (u < edge) {
      p.kind = Kind::kAnalyzeHit;
    } else if (u < (edge += mix.downtime)) {
      p.kind = Kind::kDowntime;
      p.request.kind = service::RequestKind::kDowntime;
    } else if (u < (edge += mix.siting)) {
      p.kind = Kind::kSiting;
      p.request.kind = service::RequestKind::kSiting;
    } else if (u < (edge += mix.stats)) {
      p.kind = Kind::kStats;
      p.request = service::Request{};
      p.request.kind = service::RequestKind::kStats;
    } else {
      p.kind = Kind::kAnalyzeMiss;
      p.request.realizations = kMissRealizations;
      p.request.sea_level_offset_m = 0.05 + rng.uniform(0.0, 0.5);
    }
    plan.push_back(std::move(p));
  }
  return plan;
}

struct Sent {
  double lag_ms = 0.0;      ///< send time - due time
  double latency_ms = 0.0;  ///< answer time - due time
  double client_ms = 0.0;   ///< answer time - send time
  bool answered = false;    ///< kResponse (not shed / errored)
  ct::service::CallResult result;
};

struct Rig {
  std::unique_ptr<service::Server> server;
  std::unique_ptr<service::Client> client;
  std::string address;
};

/// Builds and starts a server and connects the rig's own client; returns
/// the seconds that took in `seconds`.
Rig start_server(const Context& ctx, unsigned jobs, const std::string& name,
                 double& seconds) {
  const auto start = Clock::now();
  service::ServerOptions options;
  options.unix_path = ctx.tmp + "/" + name + ".sock";
  options.defaults = case_options(ctx, jobs, ctx.tmp + "/cache-" + name);
  Rig rig;
  rig.address = "unix:" + options.unix_path;
  rig.server = std::make_unique<service::Server>(options);
  rig.server->start();
  rig.client = std::make_unique<service::Client>(rig.address, "ctbench");
  rig.client->connect();
  seconds = seconds_since(start);
  return rig;
}

/// One call on the rig's own client; throws when the server refuses.
service::Response call(Rig& rig, const service::Request& request,
                       double* seconds = nullptr) {
  const auto start = Clock::now();
  service::CallResult r = rig.client->call(request);
  if (seconds != nullptr) *seconds = seconds_since(start);
  if (!r.ok) {
    throw std::runtime_error("server refused a request: " + r.error.message);
  }
  return r.response;
}

void stop_server(Rig& rig) {
  rig.client->close();
  rig.server->stop();
}

}  // namespace

void run_serve_mixed(const Context& ctx, Sheet& sheet) {
  warm_up_surge(ctx);
  if (ctx.trace) obs::set_trace_enabled(true);
  const service::Request paper = analyze_request(/*no_cache=*/false);
  service::Request downtime = paper;
  downtime.kind = service::RequestKind::kDowntime;
  service::Request siting = paper;
  siting.kind = service::RequestKind::kSiting;

  // Cold paper analyze through fresh servers (each with its own empty
  // cache): the sweep through the service path, at jobs=nproc (3 servers)
  // interleaved with jobs=1 (2 servers). A jobs=nproc server is then set
  // up for serving: its paper session is pre-warmed with downtime (which
  // generates the realization batch) and siting. Set-up time is server
  // start + connect + that pre-warm. The last server stays up for the load.
  std::vector<double> setup;
  std::vector<double> cold_s;
  std::vector<double> serial_cold_s;
  std::string cold_output;
  Rig main;
  const unsigned order[] = {ctx.nproc, 1u, ctx.nproc, 1u, ctx.nproc};
  for (std::size_t k = 0; k < std::size(order); ++k) {
    const unsigned jobs = order[k];
    double start_s = 0.0;
    Rig rig = start_server(ctx, jobs, "cold" + std::to_string(k), start_s);
    double s = 0.0;
    const service::Response r = call(rig, paper, &s);
    (jobs == 1 ? serial_cold_s : cold_s).push_back(s);
    sheet.gate(k == 0 || r.output == cold_output,
               "cold server analyze reports differ between servers");
    cold_output = r.output;
    if (jobs != 1) {
      double downtime_s = 0.0;
      double siting_s = 0.0;
      call(rig, downtime, &downtime_s);
      call(rig, siting, &siting_s);
      setup.push_back(start_s + downtime_s + siting_s);
    }
    if (k + 1 < std::size(order)) {
      stop_server(rig);
    } else {
      main = std::move(rig);
    }
  }
  const double serial_s = median(serial_cold_s);

  // Open-loop load: nproc sender threads, each with its own connection,
  // take the next scheduled request, wait for its due time and send it.
  // The set-up connection closes first, so at most nproc are open.
  main.client->close();
  const std::vector<Planned> plan = make_schedule(ctx.seed, ctx.seconds);
  std::vector<Sent> sent(plan.size());
  const service::ServerStats before = main.server->stats();
  MetricsDelta load_delta;
  std::atomic<std::size_t> next{0};
  std::atomic<int> connect_failures{0};
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> senders;
  for (unsigned c = 0; c < ctx.nproc; ++c) {
    senders.emplace_back([&] {
      service::Client client(main.address, "ctbench-load");
      try {
        client.connect();
      } catch (const std::exception&) {
        connect_failures.fetch_add(1);
        return;
      }
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= plan.size()) break;
        const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(plan[i].due_s));
        std::this_thread::sleep_until(due);
        obs::Span span("bench.request");
        const auto send = Clock::now();
        Sent& s = sent[i];
        try {
          s.result = client.call(plan[i].request);
          s.answered = s.result.ok;
        } catch (const std::exception&) {
          s.answered = false;
        }
        const auto done = Clock::now();
        s.lag_ms = std::chrono::duration<double, std::milli>(send - due).count();
        s.latency_ms =
            std::chrono::duration<double, std::milli>(done - due).count();
        s.client_ms =
            std::chrono::duration<double, std::milli>(done - send).count();
      }
      client.close();
    });
  }
  for (std::thread& t : senders) t.join();
  const double load_s = seconds_since(t0);
  load_delta.stop();
  const service::ServerStats after = main.server->stats();
  stop_server(main);
  sheet.gate(connect_failures.load() == 0, "a load connection failed");

  // Local execution of every distinct request: the byte-identity oracle
  // and the directly timed execute_request costs.
  const core::CaseStudyOptions local_defaults = case_options(ctx, ctx.nproc);
  std::map<std::string, std::unique_ptr<core::CaseStudyRunner>> runners;
  std::map<std::string, service::ExecOutcome> expected;
  std::map<std::string, std::vector<double>> exec_ms;
  const auto local = [&](const service::Request& request,
                         Kind kind) -> const service::ExecOutcome& {
    const std::string key = service::encode_request(request);
    auto it = expected.find(key);
    if (it != expected.end()) return it->second;
    const std::string session = service::session_key(request, local_defaults);
    auto& runner = runners[session];
    if (!runner) {
      runner = service::make_case_study(request, local_defaults, nullptr);
    }
    auto start = Clock::now();
    service::ExecOutcome out = service::execute_request(request, *runner);
    double ms = seconds_since(start) * 1e3;
    if (kind == Kind::kAnalyzeMiss) {
      runners.erase(session);  // one request per miss session
    } else {
      // A repeat on the now-warm runner: what a served hit costs.
      start = Clock::now();
      out = service::execute_request(request, *runner);
      ms = seconds_since(start) * 1e3;
    }
    exec_ms[kind_name(kind)].push_back(ms);
    return expected.emplace(key, std::move(out)).first->second;
  };

  std::vector<double> latency;
  std::vector<double> lag;
  double client_ms_sum = 0.0;
  std::uint64_t admitted = 0;
  std::uint64_t good = 0;
  std::uint64_t bad = 0;
  std::map<Kind, std::uint64_t> per_kind;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Sent& s = sent[i];
    ++per_kind[plan[i].kind];
    latency.push_back(s.latency_ms);
    lag.push_back(s.lag_ms);
    bool correct = s.answered;
    if (correct && plan[i].kind != Kind::kStats) {
      const service::ExecOutcome& want = local(plan[i].request, plan[i].kind);
      correct = s.result.response.output == want.output &&
                s.result.response.exit_code == want.exit_code;
      sheet.gate(correct, std::string(kind_name(plan[i].kind)) +
                              " response " + std::to_string(i) +
                              " differs from local execute_request");
      client_ms_sum += s.client_ms;
      ++admitted;
    }
    if (!s.answered) ++bad;
    if (correct && s.latency_ms <= kLimitMs) ++good;
  }
  sheet.gate(!plan.empty(), "empty request schedule");
  sheet.attempt(plan.size(), bad);

  std::string cold_list;
  for (const double s : cold_s) cold_list += " " + std::to_string(s);
  for (const double s : serial_cold_s) cold_list += " " + std::to_string(s);
  sheet.note("cold server analyze s (jobs=nproc, then jobs=1):" + cold_list);
  sheet.set("setup_s", median(setup), "s");
  sheet.set("sweep_s", median(cold_s), "s");
  sheet.set("sweep_serial_s", serial_s, "s");
  sheet.set("parallel_efficiency",
            serial_s / (ctx.nproc * median(cold_s)), "ratio");

  const Tail tail = supported_tail(latency);
  sheet.set("req_p50_ms", median(latency), "ms");
  sheet.set("req_tail_ms", tail.value, "ms");
  sheet.set("req_tail_pct", tail.percentile, "pct");
  sheet.set("req_samples", static_cast<double>(tail.samples), "count");
  sheet.set("goodput_rps", static_cast<double>(good) / load_s, "1/s");
  sheet.set("slo_met_ratio",
            static_cast<double>(good) / static_cast<double>(plan.size()),
            "ratio");
  sheet.set("gen_lag_ms", median(lag), "ms");
  sheet.note("load: " + std::to_string(plan.size()) + " requests in " +
             std::to_string(load_s) + " s at " +
             std::to_string(kRatePerSecond) + "/s offered, limit " +
             std::to_string(kLimitMs) + " ms, tail p" +
             std::to_string(tail.percentile) + " of " +
             std::to_string(tail.samples) + " samples, max lag " +
             std::to_string(quantile(lag, 1.0)) + " ms");
  for (const auto& [kind, n] : per_kind) {
    sheet.note(std::string("  ") + kind_name(kind) + ": " + std::to_string(n));
  }

  for (const Kind kind : {Kind::kAnalyzeHit, Kind::kAnalyzeMiss,
                          Kind::kDowntime, Kind::kSiting}) {
    sheet.set(std::string("service.exec_ms.") + kind_name(kind),
              median(exec_ms[kind_name(kind)]), "ms");
  }
  const std::uint64_t completed = after.completed - before.completed;
  const double server_ms =
      completed == 0 ? 0.0
                     : static_cast<double>(after.total_latency_ms -
                                           before.total_latency_ms) /
                           static_cast<double>(completed);
  sheet.set("service.server_ms", server_ms, "ms");
  sheet.set("service.queue_wait_ms",
            server_ms - load_delta.hist_mean("service.request_us") / 1e3, "ms");
  sheet.set("service.wire_ms",
            admitted == 0 ? 0.0
                          : client_ms_sum / static_cast<double>(admitted) -
                                server_ms,
            "ms");
  sheet.set("service.shed", static_cast<double>(after.shed - before.shed),
            "count");
  sheet.set("service.failed", static_cast<double>(after.failed - before.failed),
            "count");
  const double lookups = load_delta.counter("cache.lookups");
  sheet.set("runtime.cache_lookups", lookups, "count");
  sheet.set("runtime.cache_hit_ratio",
            lookups > 0 ? load_delta.counter("cache.hits") / lookups : 0.0,
            "ratio");
  sheet.set("runtime.cache_disk_hits", load_delta.counter("cache.disk_hits"),
            "count");
  sheet.set("runtime.cache_lookup_us", load_delta.hist_mean("cache.lookup_us"),
            "us");
  if (ctx.trace) obs::set_trace_enabled(false);
}

}  // namespace ctbench
