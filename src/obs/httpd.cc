#include "obs/httpd.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <unistd.h>

#include <chrono>
#include <utility>

#include "common/logging.h"
#include "obs/flightrec.h"
#include "obs/introspect.h"
#include "obs/memprof.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace serigraph {

namespace {

/// How long one connection may take to deliver its request.
constexpr std::chrono::seconds kRequestDeadline{5};

const char* HttpStatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Status";
  }
}

/// Minimal query-string decode for one key: returns the (plus- and
/// percent-decoded) value of `key`, or empty.
std::string QueryParam(const std::string& query, const std::string& key) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string pair = query.substr(pos, amp - pos);
    const size_t eq = pair.find('=');
    if (eq != std::string::npos && pair.substr(0, eq) == key) {
      std::string value = pair.substr(eq + 1);
      std::string decoded;
      for (size_t i = 0; i < value.size(); ++i) {
        if (value[i] == '+') {
          decoded += ' ';
        } else if (value[i] == '%' && i + 2 < value.size()) {
          const auto hex = [](char c) -> int {
            if (c >= '0' && c <= '9') return c - '0';
            if (c >= 'a' && c <= 'f') return c - 'a' + 10;
            if (c >= 'A' && c <= 'F') return c - 'A' + 10;
            return -1;
          };
          const int hi = hex(value[i + 1]);
          const int lo = hex(value[i + 2]);
          if (hi >= 0 && lo >= 0) {
            decoded += static_cast<char>(hi * 16 + lo);
            i += 2;
          } else {
            decoded += value[i];
          }
        } else {
          decoded += value[i];
        }
      }
      return decoded;
    }
    pos = amp + 1;
  }
  return "";
}

}  // namespace

// ---------------------------------------------------------------------------
// HttpServer

HttpServer::HttpServer(const Options& options, Router router)
    : options_(options), router_(std::move(router)) {}

StatusOr<std::unique_ptr<HttpServer>> HttpServer::Start(const Options& options,
                                                        Router router) {
  std::unique_ptr<HttpServer> server(
      new HttpServer(options, std::move(router)));
  const Status status = server->Listen();
  if (!status.ok()) return status;
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  const int num_threads = options.num_threads < 1 ? 1 : options.num_threads;
  server->workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    server->workers_.emplace_back([s = server.get()] { s->WorkerLoop(); });
  }
  return server;
}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string err = strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("bind 127.0.0.1:" +
                            std::to_string(options_.port) + ": " + err);
  }
  if (::listen(listen_fd_, 64) != 0) {
    const std::string err = strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("listen: " + err);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                    &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  return Status::OK();
}

void HttpServer::AcceptLoop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    {
      sy::MutexLock lock(&queue_mu_);
      if (stopping_) {
        if (fd >= 0) ::close(fd);
        return;
      }
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        return;  // listen socket gone (Stop) or unrecoverable
      }
      if (pending_.size() >= options_.max_queue) {
        ::close(fd);  // overloaded: shed, don't queue unboundedly
        continue;
      }
      pending_.push_back(fd);
    }
    queue_cv_.NotifyOne();
  }
}

void HttpServer::WorkerLoop() {
  while (true) {
    int fd = -1;
    {
      sy::MutexLock lock(&queue_mu_);
      while (pending_.empty() && !stopping_) queue_cv_.Wait(queue_mu_);
      if (pending_.empty() && stopping_) return;
      fd = pending_.front();
      pending_.pop_front();
    }
    HandleConnection(fd);
  }
}

void HttpServer::HandleConnection(int fd) {
  // One deadline for the whole request, re-armed as the receive timeout
  // before each recv: a client trickling bytes costs one worker at most
  // kRequestDeadline and is then dropped without a reply.
  const auto deadline = std::chrono::steady_clock::now() + kRequestDeadline;
  struct timeval timeout = {kRequestDeadline.count(), 0};
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

  std::string request;
  char buf[1024];
  while (request.size() < 16 * 1024 &&
         request.find("\r\n\r\n") == std::string::npos) {
    const int64_t left_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            deadline - std::chrono::steady_clock::now())
            .count();
    if (left_us <= 0) break;  // (a zero timeout would never fire)
    timeout = {static_cast<time_t>(left_us / 1000000),
               static_cast<suseconds_t>(left_us % 1000000)};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    request.append(buf, static_cast<size_t>(n));
  }
  if (std::chrono::steady_clock::now() >= deadline) {
    ::close(fd);
    return;
  }

  HttpResponse response;
  const size_t line_end = request.find("\r\n");
  if (line_end == std::string::npos) {
    response.status = 400;
    response.body = "malformed request\n";
  } else {
    const std::string line = request.substr(0, line_end);
    const size_t sp1 = line.find(' ');
    const size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                                : line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
      response.status = 400;
      response.body = "malformed request line\n";
    } else {
      HttpRequest parsed;
      parsed.method = line.substr(0, sp1);
      std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
      const size_t qmark = target.find('?');
      if (qmark != std::string::npos) {
        parsed.query = target.substr(qmark + 1);
        target = target.substr(0, qmark);
      }
      parsed.path = target;
      if (parsed.method != "GET") {
        response.status = 405;
        response.body = "only GET is supported\n";
      } else {
        response = router_(parsed);
      }
    }
  }

  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    HttpStatusText(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += response.body;
  size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n = ::send(fd, out.data() + sent, out.size() - sent,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  ::close(fd);
}

void HttpServer::Stop() {
  {
    sy::MutexLock lock(&queue_mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  queue_cv_.NotifyAll();
  // Unblock the accept thread; accept() returns with an error once the
  // listening socket is shut down and closed.
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  listen_fd_ = -1;
  sy::MutexLock lock(&queue_mu_);
  while (!pending_.empty()) {
    ::close(pending_.front());
    pending_.pop_front();
  }
}

// ---------------------------------------------------------------------------
// ObsServer

StatusOr<std::unique_ptr<ObsServer>> ObsServer::Start(const Options& options) {
  std::unique_ptr<ObsServer> server(new ObsServer());
  HttpServer::Options http_options;
  http_options.port = options.port;
  http_options.num_threads = options.num_threads;
  auto http = HttpServer::Start(
      http_options, [s = server.get()](const HttpRequest& request) {
        return s->Route(request);
      });
  if (!http.ok()) return http.status();
  server->http_ = std::move(http).value();
  TelemetryHub::SetServing(true);
  Tracer::RecordInstant("obs.server_start");
  return server;
}

ObsServer::~ObsServer() { Stop(); }

void ObsServer::Stop() {
  if (http_ == nullptr) return;
  TelemetryHub::SetServing(false);
  http_->Stop();
}

HttpResponse ObsServer::Route(const HttpRequest& request) {
  requests_.fetch_add(1, std::memory_order_relaxed);  // mo: stat counter
  if (request.path == "/metrics") return Metrics();
  if (request.path == "/healthz") return Healthz();
  if (request.path == "/statusz") return Statusz();
  if (request.path == "/incidentz" || request.path == "/incidentz/trigger") {
    return Incidentz(request);
  }
  HttpResponse response;
  response.status = 404;
  response.body =
      "not found; endpoints: /metrics /healthz /statusz /incidentz\n";
  return response;
}

HttpResponse ObsServer::Metrics() const {
  std::map<std::string, int64_t> extra;
  extra[SG_OBS_SERVED_METRIC("obs.http_requests")] =
      requests_.load(std::memory_order_relaxed);  // mo: stat counter
  extra[SG_OBS_SERVED_METRIC("obs.incidents")] =
      static_cast<int64_t>(IncidentManager::Get().List().size());
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = MetricsToPrometheusExposition(
      TelemetryHub::Get().MetricsSnapshot(), extra);
  return response;
}

HttpResponse ObsServer::Healthz() const {
  HttpResponse response;
  response.content_type = "application/json";
  response.body = HealthState::Get().ToJson() + "\n";
  if (HealthState::Get().level() == HealthLevel::kUnhealthy) {
    response.status = 503;
  }
  return response;
}

HttpResponse ObsServer::Statusz() const {
  const std::map<std::string, int64_t> metrics =
      TelemetryHub::Get().MetricsSnapshot();
  const auto metric = [&metrics](const char* name) -> int64_t {
    const auto it = metrics.find(name);
    return it == metrics.end() ? 0 : it->second;
  };
  TelemetryHub::RunStatus& run = TelemetryHub::Get().run();
  const BuildInfo build = GetBuildInfo();
  const MemoryStatus mem = ReadMemoryStatus();

  JsonWriter w;
  w.BeginObject()
      .Key("pid")
      .Value(static_cast<int64_t>(::getpid()))
      .Key("uptime_seconds")
      .Value(static_cast<double>(Tracer::NowMicros()) / 1e6)
      .Key("build")
      .BeginObject()
      .Key("commit")
      .Value(build.commit)
      .Key("build_type")
      .Value(build.build_type)
      .Key("sanitizer")
      .Value(build.sanitizer)
      .EndObject()
      .Key("health")
      .Raw(HealthState::Get().ToJson())
      .Key("run")
      .BeginObject()
      .Key("running")  // mo: live telemetry; approximate by design
      .Value(run.running.load(std::memory_order_relaxed))
      .Key("superstep")  // mo: live telemetry; approximate by design
      .Value(run.superstep.load(std::memory_order_relaxed))
      .Key("workers")  // mo: live telemetry; approximate by design
      .Value(run.workers.load(std::memory_order_relaxed))
      .Key("active_vertices")  // mo: live telemetry; approximate by design
      .Value(run.active_vertices.load(std::memory_order_relaxed))
      .Key("recovery_attempts")  // mo: live telemetry; approximate by design
      .Value(run.recovery_attempts.load(std::memory_order_relaxed))
      .EndObject()
      .Key("rss_kb")
      .Value(mem.rss_kb)
      .Key("arena")
      .BeginObject()
      .Key("chunks")
      .Value(metric("store.arena_chunks"))
      .Key("nodes_in_use")
      .Value(metric("store.arena_nodes_in_use"))
      .Key("node_capacity")
      .Value(metric("store.arena_node_capacity"))
      .Key("max_chain_len")
      .Value(metric("store.max_chain_len"))
      .EndObject()
      .Key("flight_events")
      .Value(Tracer::Get().held_count())
      .Key("incidents")
      .Value(static_cast<int64_t>(IncidentManager::Get().List().size()));

  if (Introspector::enabled()) {
    Introspector& in = Introspector::Get();
    w.Key("workers").Raw(BeaconJson(in.ReadBeacons()));
    w.Key("contention_top").BeginArray();
    for (const ContentionEntry& e : in.ContentionTopK(10)) {
      w.BeginObject()
          .Key("resource")
          .Value(e.resource)
          .Key("count")
          .Value(e.count)
          .Key("total_wait_us")
          .Value(e.total_wait_us)
          .Key("max_wait_us")
          .Value(e.max_wait_us)
          .EndObject();
    }
    w.EndArray();
  }
  w.EndObject();

  HttpResponse response;
  response.content_type = "application/json";
  response.body = w.str() + "\n";
  return response;
}

HttpResponse ObsServer::Incidentz(const HttpRequest& request) const {
  HttpResponse response;
  response.content_type = "application/json";
  if (request.path == "/incidentz/trigger") {
    std::string reason = QueryParam(request.query, "reason");
    if (reason.empty()) reason = "operator-requested dump";
    const StatusOr<std::string> bundle =
        IncidentManager::Get().Dump("manual", reason, /*manual=*/true);
    JsonWriter w;
    w.BeginObject();
    if (!bundle.ok()) {
      response.status = 503;
      w.Key("error").Value(bundle.status().ToString());
    } else if (bundle.value().empty()) {
      response.status = 503;
      w.Key("error").Value(
          "incident dumping disabled (no --incident-dir) or rate-limited");
    } else {
      w.Key("bundle").Value(bundle.value());
    }
    w.EndObject();
    response.body = w.str() + "\n";
    return response;
  }
  response.body = IncidentManager::Get().ListJson() + "\n";
  return response;
}

}  // namespace serigraph
