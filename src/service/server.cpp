#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/json_writer.h"
#include "util/strings.h"
#include "util/table.h"

namespace ct::service {

namespace {

using util::Error;
using util::ErrorCode;

/// Serving-layer telemetry: executed-request latency plus the shed counter
/// the admission queue bumps on kOverloaded.
struct ServiceMetrics {
  obs::Counter requests{"service.requests"};
  obs::Counter shed{"service.shed"};
  obs::Histogram request_us{"service.request_us"};
};

ServiceMetrics& service_metrics() {
  static ServiceMetrics m;
  return m;
}

[[noreturn]] void io_fail(const std::string& what) {
  throw Error(ErrorCode::kIo, "server",
              what + ": " + std::strerror(errno));
}

int make_unix_listener(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw Error(ErrorCode::kInvalidInput, "server",
                "unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) io_fail("socket(AF_UNIX)");
  ::unlink(path.c_str());  // a stale socket file from a dead server
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    io_fail("bind(" + path + ")");
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    io_fail("listen(" + path + ")");
  }
  return fd;
}

int make_tcp_listener(std::uint16_t port, std::uint16_t& bound) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) io_fail("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    io_fail("bind(127.0.0.1:" + std::to_string(port) + ")");
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    io_fail("listen");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    bound = ntohs(addr.sin_port);
  }
  return fd;
}

std::uint64_t elapsed_ms(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

Address parse_address(const std::string& spec) {
  Address out;
  if (util::starts_with(spec, "unix:")) {
    out.is_unix = true;
    out.path = spec.substr(5);
  } else if (spec.find('/') != std::string::npos) {
    out.is_unix = true;
    out.path = spec;
  } else {
    std::string rest =
        util::starts_with(spec, "tcp:") ? spec.substr(4) : spec;
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos) {
      throw Error(ErrorCode::kInvalidInput, "server",
                  "address must be unix:<path> or <host>:<port>, got: " +
                      spec);
    }
    out.host = rest.substr(0, colon);
    if (out.host.empty()) out.host = "127.0.0.1";
    const std::string port_str = rest.substr(colon + 1);
    char* end = nullptr;
    const unsigned long port = std::strtoul(port_str.c_str(), &end, 10);
    if (port_str.empty() || *end != '\0' || port > 65535) {
      throw Error(ErrorCode::kInvalidInput, "server",
                  "bad port in address: " + spec);
    }
    out.port = static_cast<std::uint16_t>(port);
  }
  if (out.is_unix && out.path.empty()) {
    throw Error(ErrorCode::kInvalidInput, "server",
                "empty unix socket path in address: " + spec);
  }
  return out;
}

// --- Session ---------------------------------------------------------------

/// One connected client. The session thread owns the read side; writes
/// (session thread for inline answers, executor thread for chunks and
/// final responses) serialize on write_mutex.
struct Server::Session {
  int fd = -1;
  std::mutex write_mutex;
  std::atomic<bool> alive{true};
  bool greeted = false;  ///< session-thread-only

  /// In-flight request's cancellation token; the session thread cancels
  /// it when the client disappears so a dead client's sweep stops at the
  /// next slice boundary instead of running to completion.
  std::mutex token_mutex;
  runtime::CancellationToken* inflight = nullptr;

  bool send_frame(FrameType type, std::uint32_t request_id,
                  std::string_view payload) {
    if (!alive.load(std::memory_order_acquire)) return false;
    const std::string bytes = encode_frame(type, request_id, payload);
    std::lock_guard<std::mutex> lock(write_mutex);
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        alive.store(false, std::memory_order_release);
        return false;
      }
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  void set_inflight(runtime::CancellationToken* token) {
    std::lock_guard<std::mutex> lock(token_mutex);
    inflight = token;
    // The client may have died while this request sat in the queue.
    if (token != nullptr && !alive.load(std::memory_order_acquire)) {
      token->request_cancel();
    }
  }

  void cancel_inflight() {
    std::lock_guard<std::mutex> lock(token_mutex);
    if (inflight != nullptr) inflight->request_cancel();
  }

  void shutdown_socket() { ::shutdown(fd, SHUT_RDWR); }
};

// --- Server ----------------------------------------------------------------

Server::Server(ServerOptions options)
    : options_(std::move(options)), shared_runtime_(options_.defaults.runtime) {
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  if (options_.stream_interval == 0) options_.stream_interval = 128;
  if (options_.session_cap == 0) options_.session_cap = 1;
}

Server::~Server() { stop(); }

void Server::start() {
  if (options_.unix_path.empty() && !options_.tcp) {
    throw Error(ErrorCode::kInvalidInput, "server",
                "no listener configured (need a unix path or tcp)");
  }
  // A client closing mid-write must surface as a send() error, not kill
  // the process.
  std::signal(SIGPIPE, SIG_IGN);
  if (!options_.unix_path.empty()) {
    listen_fds_.push_back(make_unix_listener(options_.unix_path));
  }
  if (options_.tcp) {
    listen_fds_.push_back(make_tcp_listener(options_.tcp_port,
                                            bound_tcp_port_));
  }
  started_.store(true, std::memory_order_release);
  for (const int fd : listen_fds_) {
    accept_threads_.emplace_back([this, fd] { accept_loop(fd); });
  }
  executor_thread_ = std::thread([this] { executor_loop(); });
}

void Server::stop() {
  if (!started_.exchange(false, std::memory_order_acq_rel)) return;
  // 1. Refuse new work (admissions answer kShuttingDown from here on).
  draining_.store(true, std::memory_order_release);
  queue_cv_.notify_all();
  // 2. Close listeners; accept loops unblock and exit. shutdown() first:
  //    on Linux, close() alone does NOT wake a thread blocked in accept().
  for (const int fd : listen_fds_) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  for (std::thread& t : accept_threads_) t.join();
  accept_threads_.clear();
  listen_fds_.clear();
  // 3. The executor drains everything already admitted, then exits —
  //    clients that asked before the drain began still get answers.
  if (executor_thread_.joinable()) executor_thread_.join();
  // 4. Tear down the sessions: shut the sockets so blocked reads return.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& session : sessions_) session->shutdown_socket();
  }
  for (std::thread& t : session_threads_) t.join();
  session_threads_.clear();
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServerStats out = stats_;
  out.queue_depth = queue_.size();
  out.cache = shared_runtime_.cache_stats();
  out.des = sim::des_counters_snapshot();
  return out;
}

void Server::accept_loop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed (drain) or unrecoverable
    }
    if (draining_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    auto session = std::make_shared<Session>();
    session->fd = fd;
    std::lock_guard<std::mutex> lock(mutex_);
    sessions_.push_back(session);
    ++stats_.connections;
    ++stats_.active_sessions;
    session_threads_.emplace_back(
        [this, session] { session_loop(session); });
  }
}

void Server::session_loop(std::shared_ptr<Session> session) {
  FrameDecoder decoder;
  char buffer[64 * 1024];
  bool protocol_error = false;
  for (;;) {
    const ssize_t n = ::recv(session->fd, buffer, sizeof buffer, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // peer closed or socket shut down
    }
    try {
      decoder.feed(buffer, static_cast<std::size_t>(n));
      Frame frame;
      bool keep = true;
      while (keep && decoder.next(frame)) {
        keep = handle_frame(session, frame);
      }
      if (!keep) break;
    } catch (const Error& e) {
      // Malformed framing: answer with a typed error, then drop the
      // connection — after a framing fault the stream is unsynchronized.
      ErrorInfo info;
      info.status = Status::kMalformedRequest;
      info.message = e.what();
      session->send_frame(FrameType::kError, 0, encode_error(info));
      protocol_error = true;
      break;
    }
  }
  // Reclaim: cancel any in-flight sweep for this client and make queued
  // jobs no-ops (run_job skips dead sessions), so the admission slot is
  // never leaked.
  session->alive.store(false, std::memory_order_release);
  session->cancel_inflight();
  ::close(session->fd);
  std::lock_guard<std::mutex> lock(mutex_);
  if (protocol_error) ++stats_.protocol_errors;
  --stats_.active_sessions;
  sessions_.remove(session);
}

bool Server::handle_frame(const std::shared_ptr<Session>& session,
                          const Frame& frame) {
  if (!session->greeted) {
    if (frame.type != FrameType::kHello) {
      ErrorInfo info;
      info.status = Status::kMalformedRequest;
      info.message = "expected kHello before any other frame";
      session->send_frame(FrameType::kError, frame.request_id,
                         encode_error(info));
      return false;
    }
    const Hello hello = decode_hello(frame.payload);
    if (hello.min_version > kProtocolVersion ||
        hello.max_version < kProtocolVersion) {
      ErrorInfo info;
      info.status = Status::kUnsupportedVersion;
      info.message = "server speaks protocol version " +
                     std::to_string(int{kProtocolVersion});
      session->send_frame(FrameType::kError, frame.request_id,
                         encode_error(info));
      return false;
    }
    Welcome welcome;
    welcome.version = kProtocolVersion;
    welcome.server_name = options_.name;
    session->greeted = true;
    return session->send_frame(FrameType::kWelcome, frame.request_id,
                               encode_welcome(welcome));
  }

  if (frame.type != FrameType::kRequest) {
    ErrorInfo info;
    info.status = Status::kMalformedRequest;
    info.message = "unexpected frame type from client";
    session->send_frame(FrameType::kError, frame.request_id,
                       encode_error(info));
    return false;
  }

  Request request;
  try {
    request = decode_request(frame.payload);
  } catch (const Error& e) {
    // The frame itself was well-formed (checksums passed), so the stream
    // is still synchronized — answer and keep the connection.
    ErrorInfo info;
    info.status = Status::kMalformedRequest;
    info.message = e.what();
    session->send_frame(FrameType::kError, frame.request_id,
                       encode_error(info));
    return true;
  }

  // Liveness and introspection are answered inline on the session thread;
  // they never compete with analysis work for queue slots.
  if (request.kind == RequestKind::kPing) {
    Response response;
    session->send_frame(FrameType::kResponse, frame.request_id,
                        encode_response(response));
    return true;
  }
  if (request.kind == RequestKind::kStats) {
    Response response;
    response.output = render_stats(request.json);
    session->send_frame(FrameType::kResponse, frame.request_id,
                        encode_response(response));
    return true;
  }
  if (request.kind == RequestKind::kMetrics) {
    // Same formatter `ctctl stats --metrics` uses locally, so remote and
    // local metrics output are byte-identical by construction.
    Response response;
    response.output =
        obs::format_metrics(obs::capture_metrics(), request.json);
    session->send_frame(FrameType::kResponse, frame.request_id,
                        encode_response(response));
    return true;
  }

  admit(session, std::move(request), frame.request_id);
  return true;
}

void Server::admit(const std::shared_ptr<Session>& session, Request request,
                   std::uint32_t request_id) {
  ErrorInfo info;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_.load(std::memory_order_acquire)) {
      ++stats_.failed;
      info.status = Status::kShuttingDown;
      info.message = "server is draining; no new work admitted";
    } else if (queue_.size() >= options_.queue_capacity) {
      // Explicit load shedding: a full queue answers immediately with the
      // admission state instead of stalling the connection.
      ++stats_.shed;
      service_metrics().shed.inc();
      obs::trace_instant("service.shed");
      info.status = Status::kOverloaded;
      info.message = "admission queue full";
      info.queue_depth = static_cast<std::uint32_t>(queue_.size());
      info.retry_after_ms = options_.retry_after_ms;
    } else {
      Job job;
      job.session = session;
      job.request = std::move(request);
      job.request_id = request_id;
      job.admitted_at = std::chrono::steady_clock::now();
      queue_.push_back(std::move(job));
      ++stats_.admitted;
      queue_cv_.notify_one();
      return;
    }
  }
  session->send_frame(FrameType::kError, request_id, encode_error(info));
}

void Server::executor_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || draining_.load(std::memory_order_acquire);
      });
      if (queue_.empty()) return;  // draining and fully drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    run_job(std::move(job));
  }
}

core::CaseStudyRunner& Server::session_runner(const Request& request) {
  const std::string key = session_key(request, options_.defaults);
  for (auto it = runners_.begin(); it != runners_.end(); ++it) {
    if (it->first == key) {
      runners_.splice(runners_.begin(), runners_, it);
      return *runners_.front().second;
    }
  }
  runners_.emplace_front(
      key, make_case_study(request, options_.defaults, &shared_runtime_));
  if (runners_.size() > options_.session_cap) runners_.pop_back();
  return *runners_.front().second;
}

void Server::run_job(Job job) {
  obs::Span span("service.request");
  ServiceMetrics& metrics = service_metrics();
  obs::ScopedTimer timer(metrics.request_us);
  metrics.requests.inc();
  const std::shared_ptr<Session>& session = job.session;
  if (!session->alive.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.abandoned;
    return;
  }

  const std::uint32_t deadline_ms = job.request.deadline_ms != 0
                                        ? job.request.deadline_ms
                                        : options_.default_deadline_ms;
  runtime::CancellationToken token =
      deadline_ms != 0
          ? runtime::CancellationToken(std::chrono::milliseconds(deadline_ms))
          : runtime::CancellationToken();
  session->set_inflight(&token);

  ErrorInfo failure;
  bool failed = false;
  ExecOutcome outcome;
  try {
    core::CaseStudyRunner& runner = session_runner(job.request);
    runtime::CheckpointOptions ckpt;
    ckpt.interval = options_.stream_interval;
    ckpt.on_progress = [&](const runtime::SweepProgressEvent& event) {
      StreamChunk chunk;
      chunk.done = event.done;
      chunk.total = event.total;
      chunk.quarantined = event.quarantined;
      chunk.retries = event.retries;
      if (session->send_frame(FrameType::kStreamChunk, job.request_id,
                              encode_chunk(chunk))) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.chunks_streamed;
      }
    };
    outcome = execute_request(job.request, runner, ckpt, &token);
    if (outcome.interrupted) {
      failed = true;
      failure.status = Status::kDeadlineExceeded;
      failure.message = "deadline of " + std::to_string(deadline_ms) +
                        " ms exceeded; partial progress discarded";
    }
  } catch (const Error& e) {
    failed = true;
    failure.status = (e.code() == ErrorCode::kInvalidInput ||
                      e.code() == ErrorCode::kParse)
                         ? Status::kMalformedRequest
                         : Status::kExecutionFailed;
    failure.message = e.what();
  } catch (const std::exception& e) {
    failed = true;
    failure.status = Status::kExecutionFailed;
    failure.message = e.what();
  }
  session->set_inflight(nullptr);

  if (!session->alive.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.abandoned;
    return;
  }
  if (failed) {
    session->send_frame(FrameType::kError, job.request_id,
                        encode_error(failure));
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.failed;
    return;
  }

  Response response;
  response.exit_code = outcome.exit_code;
  response.degraded = outcome.degraded;
  response.all_from_cache = outcome.all_from_cache;
  response.attempted = outcome.attempted;
  response.completed = outcome.completed;
  response.quarantined = outcome.quarantined;
  response.retries = outcome.retries;
  response.output = std::move(outcome.output);

  // Account before sending: a client that reads stats() right after its
  // response arrives must already see this request as completed.
  const std::uint64_t latency = elapsed_ms(job.admitted_at);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.completed;
    stats_.total_latency_ms += latency;
    if (latency > stats_.max_latency_ms) stats_.max_latency_ms = latency;
    stats_.quarantined += outcome.quarantined;
  }
  session->send_frame(FrameType::kResponse, job.request_id,
                      encode_response(response));
}

std::string Server::render_stats(bool json) const {
  const ServerStats s = stats();
  std::ostringstream os;
  if (json) {
    util::JsonWriter w(os, /*pretty=*/true);
    w.begin_object();
    w.kv("connections", s.connections);
    w.kv("active_sessions", s.active_sessions);
    w.kv("queue_depth", s.queue_depth);
    w.kv("admitted", s.admitted);
    w.kv("completed", s.completed);
    w.kv("shed", s.shed);
    w.kv("failed", s.failed);
    w.kv("abandoned", s.abandoned);
    w.kv("protocol_errors", s.protocol_errors);
    w.kv("total_latency_ms", s.total_latency_ms);
    w.kv("max_latency_ms", s.max_latency_ms);
    w.kv("quarantined", s.quarantined);
    w.kv("chunks_streamed", s.chunks_streamed);
    w.key("cache");
    w.begin_object();
    w.kv("lookups", s.cache.lookups);
    w.kv("hits", s.cache.hits);
    w.kv("disk_hits", s.cache.disk_hits);
    w.kv("corrupt_discarded", s.cache.corrupt_discarded);
    w.kv("write_failures", s.cache.write_failures);
    w.end_object();
    w.key("des");
    w.begin_object();
    w.kv("runs", s.des.runs);
    w.kv("events", s.des.events);
    w.kv("wall_ms", s.des.wall_ms);
    w.kv("events_per_second", s.des.events_per_second());
    w.end_object();
    w.end_object();
    os << "\n";
    return os.str();
  }
  util::TextTable table;
  table.set_columns({"counter", "value"},
                    {util::Align::kLeft, util::Align::kRight});
  const auto row = [&table](const char* name, std::uint64_t v) {
    table.add_row({name, std::to_string(v)});
  };
  row("connections", s.connections);
  row("active sessions", s.active_sessions);
  row("queue depth", s.queue_depth);
  row("admitted", s.admitted);
  row("completed", s.completed);
  row("shed (overloaded)", s.shed);
  row("failed", s.failed);
  row("abandoned", s.abandoned);
  row("protocol errors", s.protocol_errors);
  row("total latency ms", s.total_latency_ms);
  row("max latency ms", s.max_latency_ms);
  row("quarantined", s.quarantined);
  row("chunks streamed", s.chunks_streamed);
  row("cache lookups", s.cache.lookups);
  row("cache hits", s.cache.hits);
  row("cache disk hits", s.cache.disk_hits);
  row("des runs", s.des.runs);
  row("des events", s.des.events);
  row("des events/sec",
      static_cast<std::uint64_t>(s.des.events_per_second()));
  table.render(os);
  return os.str();
}

}  // namespace ct::service
