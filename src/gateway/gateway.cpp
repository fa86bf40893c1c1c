#include "gateway/gateway.hpp"

#include <unistd.h>

#include <algorithm>

namespace mcmm::gateway {
namespace {

/// Request headers that must not cross the proxy hop (RFC 9110 §7.6.1,
/// plus Connection-nominated ones serve never emits).
bool hop_by_hop(const std::string& name) noexcept {
  static constexpr const char* kNames[] = {
      "connection", "keep-alive",        "proxy-connection", "te",
      "trailer",    "transfer-encoding", "upgrade"};
  for (const char* n : kNames) {
    if (name == n) return true;
  }
  return false;
}

}  // namespace

serve::ListenerConfig Gateway::to_listener_config(
    const GatewayConfig& config) {
  serve::ListenerConfig out;
  out.host = config.host;
  out.port = config.port;
  out.threads = config.threads;
  out.backlog = config.backlog;
  out.request_timeout_ms = config.request_timeout_ms;
  out.idle_timeout_ms = config.idle_timeout_ms;
  out.log_fd_limit = config.log_fd_limit;
  out.limits = config.limits;
  return out;
}

Gateway::Gateway(std::vector<ReplicaEndpoint> replicas, GatewayConfig config)
    : serve::HttpListener(to_listener_config(config)),
      config_(std::move(config)),
      registry_(std::move(replicas), config_.registry),
      balancer_(config_.policy, config_.balancer_seed),
      budget_(config_.retry_budget),
      metrics_(registry_.size()),
      upstream_(registry_.size()) {
  metrics_.client.attach_loop(&loop_counters());
  registry_.start_probing();
}

Gateway::~Gateway() {
  shutdown();
  join();  // the loop has exited: every ProxyTask is done, upstream_ is ours
  registry_.stop_probing();
  for (UpstreamConns& u : upstream_) {
    for (const int fd : u.idle) ::close(fd);
    u.idle.clear();
  }
}

Response Gateway::handle_request(const Request& req,
                                 const std::string& request_id) {
  if (req.path == "/metrics") return handle_metrics(req);
  if (req.path == "/gateway/healthz") return handle_gateway_healthz();
  if (req.path == "/gateway/replicas") return handle_gateway_replicas();
  // Proxied paths are owned by dispatch_async(); reaching here means the
  // async seam was bypassed, which has no upstream path to offer.
  (void)request_id;
  Response resp = serve::error_response(503, "proxy path is async-only");
  resp.extra_headers.emplace_back("Retry-After", "1");
  return resp;
}

bool Gateway::dispatch_async(const Request& req,
                             const std::string& request_id,
                             serve::ResponseToken token) {
  if (req.path == "/metrics" || req.path == "/gateway/healthz" ||
      req.path == "/gateway/replicas") {
    return false;  // local routes answer inline on the client's loop
  }
  budget_.on_request();
  const bool head = req.method == "HEAD";
  const bool idempotent = req.method == "GET" || head;
  bool hedge_path = false;
  for (const std::string& prefix : config_.hedge_prefixes) {
    if (req.path.rfind(prefix, 0) == 0) {
      hedge_path = true;
      break;
    }
  }
  const bool hedgeable =
      config_.hedge_after_ms > 0 && req.method == "GET" && hedge_path;
  auto* task = new ProxyTask(*this, token, upstream_wire(req, request_id),
                             head, idempotent, hedgeable);
  // All task state lives on loop 0 (with UpstreamConns); hop there before
  // touching it. From a connection loop 0 owns, this queues without a wake.
  loop().post([task] { task->start(); });
  return true;
}

void Gateway::resume_waiter(std::size_t i) {
  UpstreamConns& u = upstream_[i];
  while (!u.waiters.empty() &&
         (!u.idle.empty() ||
          u.open <
              static_cast<std::size_t>(config_.max_upstream_connections))) {
    ProxyLeg* leg = u.waiters.front();
    u.waiters.pop_front();
    leg->task->resume_leg(*leg);
  }
}

Response Gateway::handle_metrics(const Request& req) {
  if (req.method != "GET" && req.method != "HEAD") {
    Response resp = serve::error_response(405, "use GET");
    resp.extra_headers.emplace_back("Allow", "GET, HEAD");
    return resp;
  }
  Response resp;
  resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
  resp.body = metrics_.prometheus_text(registry_);
  return resp;
}

Response Gateway::handle_gateway_healthz() {
  const std::size_t healthy = registry_.healthy_count();
  Response resp;
  resp.body = std::string("{\"status\":\"") +
              (healthy > 0 ? "ok" : "unavailable") +
              "\",\"healthy\":" + std::to_string(healthy) +
              ",\"replicas\":" + std::to_string(registry_.size()) +
              ",\"draining\":" + (draining() ? "true" : "false") + "}\n";
  if (healthy == 0) {
    resp.status = 503;
    resp.extra_headers.emplace_back("Retry-After", "1");
  }
  return resp;
}

Response Gateway::handle_gateway_replicas() {
  const std::int64_t now_ms = steady_now_ms();
  std::string body = "{\"replicas\":[";
  for (std::size_t i = 0; i < registry_.size(); ++i) {
    const Replica& r = registry_.at(i);
    const char* breaker = "closed";
    switch (r.breaker.state(now_ms)) {
      case CircuitBreaker::State::Closed:
        breaker = "closed";
        break;
      case CircuitBreaker::State::Open:
        breaker = "open";
        break;
      case CircuitBreaker::State::HalfOpen:
        breaker = "half-open";
        break;
    }
    if (i != 0) body += ',';
    body += "{\"host\":\"" + r.endpoint.host +
            "\",\"port\":" + std::to_string(r.endpoint.port) +
            ",\"pid\":" +
            std::to_string(r.pid.load(std::memory_order_relaxed)) +
            ",\"health\":\"" +
            to_string(r.health.load(std::memory_order_relaxed)) +
            "\",\"breaker\":\"" + breaker + "\",\"in_flight\":" +
            std::to_string(r.in_flight.load(std::memory_order_relaxed)) +
            ",\"reported_in_flight\":" +
            std::to_string(
                r.reported_in_flight.load(std::memory_order_relaxed)) +
            "}";
  }
  body += "]}\n";
  Response resp;
  resp.body = std::move(body);
  return resp;
}

std::string Gateway::upstream_wire(const Request& req,
                                   const std::string& request_id) {
  std::string wire;
  wire.reserve(256 + req.body.size());
  wire += req.method;
  wire += ' ';
  wire += req.target;
  wire += " HTTP/1.1\r\n";
  bool have_host = false;
  for (const auto& [name, value] : req.headers) {
    if (hop_by_hop(name) || name == "content-length" ||
        name == "x-request-id") {
      continue;
    }
    if (name == "host") have_host = true;
    wire += name;
    wire += ": ";
    wire += value;
    wire += "\r\n";
  }
  if (!have_host) wire += "host: gateway\r\n";
  if (!req.body.empty() || req.method == "POST" || req.method == "PUT") {
    wire += "content-length: " + std::to_string(req.body.size()) + "\r\n";
  }
  wire += "x-request-id: " + request_id + "\r\n";
  wire += "connection: keep-alive\r\n\r\n";
  wire += req.body;
  return wire;
}

Response Gateway::translate_response(ResponseParser& parser) {
  Response resp;
  resp.status = parser.status_code();
  if (const std::string* ct = parser.header("content-type")) {
    // Response::content_type only views; the upstream value travels owned.
    resp.content_type = {};
    resp.extra_headers.emplace_back("Content-Type", *ct);
  }
  if (const std::string* etag = parser.header("etag")) resp.etag = *etag;
  if (const std::string* ra = parser.header("retry-after")) {
    resp.extra_headers.emplace_back("Retry-After", *ra);
  }
  if (const std::string* allow = parser.header("allow")) {
    resp.extra_headers.emplace_back("Allow", *allow);
  }
  resp.body = parser.take_body();
  return resp;
}

std::optional<std::size_t> Gateway::pick_replica(
    const std::vector<std::size_t>& excluded, std::int64_t now_ms) {
  std::vector<std::size_t> healthy;
  registry_.eligible(healthy);
  std::vector<std::size_t> closed;
  closed.reserve(healthy.size());
  for (const std::size_t i : healthy) {
    if (std::find(excluded.begin(), excluded.end(), i) != excluded.end()) {
      continue;
    }
    Replica& r = registry_.at(i);
    switch (r.breaker.state(now_ms)) {
      case CircuitBreaker::State::Closed:
        closed.push_back(i);
        break;
      case CircuitBreaker::State::HalfOpen:
        // Offer the single half-open trial to real traffic first.
        if (r.breaker.allow(now_ms)) return i;
        break;
      case CircuitBreaker::State::Open:
        break;
    }
  }
  static const std::vector<std::size_t> kNone;
  return balancer_.pick(registry_, closed, kNone);
}


}  // namespace mcmm::gateway
