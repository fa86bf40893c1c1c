#pragma once
// mcmm gateway: an HTTP/1.1 reverse proxy in front of a fleet of mcmm
// serve replicas (DESIGN.md §3.3). It reuses the serve HttpListener loop
// on the client side and multiplexes the upstream side on the same
// readiness loop: every proxied request is a ProxyTask whose sockets,
// deadlines, retries, and hedges are event-driven, so no thread is ever
// parked on an upstream round-trip. On top of that sit health-checked
// replica selection (round-robin or power-of-two-choices on live load),
// per-replica keep-alive connection caches, circuit breakers, a global
// retry budget, transparent retries of idempotent requests, and optional
// latency hedging for hot read paths. Responses are fully buffered in the
// gateway, which is what makes retry and hedging safe: nothing is sent to
// the client until one upstream has answered completely.

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "gateway/balancer.hpp"
#include "gateway/breaker.hpp"
#include "gateway/metrics.hpp"
#include "gateway/proxy_task.hpp"
#include "gateway/registry.hpp"
#include "gateway/upstream.hpp"
#include "serve/server.hpp"

namespace mcmm::gateway {

using serve::Request;
using serve::Response;

struct GatewayConfig {
  std::string host{"127.0.0.1"};
  std::uint16_t port{8081};  ///< 0 picks an ephemeral port
  unsigned threads{0};       ///< event loops (threads); 0 = min(hw, 8)
  int backlog{1024};
  int request_timeout_ms{5000};
  int idle_timeout_ms{5000};
  int connect_timeout_ms{1000};   ///< upstream dial budget
  int upstream_timeout_ms{5000};  ///< full upstream exchange budget
  /// Hedge a slow GET under any of `hedge_prefixes` after this long;
  /// <= 0 disables.
  int hedge_after_ms{30};
  /// Hot immutable read paths worth a duplicate upstream leg: cached on
  /// the replica, so a hedge costs a lookup, never recomputation.
  std::vector<std::string> hedge_prefixes{"/v1/matrix", "/v1/perf"};
  /// Extra attempts (on other replicas) for idempotent requests.
  int max_retries{2};
  /// Ceiling on sockets (in-use + idle) per replica; proxy legs beyond it
  /// queue on the loop until a slot frees instead of dialing unbounded.
  int max_upstream_connections{256};
  /// Keep-alive connections cached per replica once a leg completes.
  int max_upstream_idle{64};
  /// Print the probed fd limit / connection ceiling at startup.
  bool log_fd_limit{false};
  Policy policy{Policy::PowerOfTwo};
  std::uint64_t balancer_seed{0x9e3779b97f4a7c15ull};
  RegistryConfig registry{};
  RetryBudgetConfig retry_budget{};
  serve::Limits limits{};
};

/// The reverse proxy. Client-side routes:
///   /metrics          gateway + upstream Prometheus families
///   /gateway/healthz  aggregate fleet health (503 until a replica has
///                     passed a probe, and whenever none is up)
///   /gateway/replicas per-replica health/breaker/load/pid as JSON
///   anything else     proxied to a replica
class Gateway : public serve::HttpListener {
 public:
  Gateway(std::vector<ReplicaEndpoint> replicas, GatewayConfig config = {});
  ~Gateway() override;

  [[nodiscard]] ReplicaRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] const GatewayMetrics& gateway_metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] RetryBudget& retry_budget() noexcept { return budget_; }

 protected:
  Response handle_request(const Request& req,
                          const std::string& request_id) override;
  /// Proxied paths are taken async: the client connection parks while a
  /// ProxyTask drives the upstream exchange on loop 0. Local routes
  /// (/metrics, /gateway/*) decline and fall back to handle_request() on
  /// the client connection's loop.
  bool dispatch_async(const Request& req, const std::string& request_id,
                      serve::ResponseToken token) override;
  void on_connection() noexcept override {
    metrics_.client.record_connection();
  }
  void on_request_begin() noexcept override {
    metrics_.client.begin_request();
  }
  void on_request_end() noexcept override { metrics_.client.end_request(); }
  void on_request_done(int status, std::uint64_t micros) noexcept override {
    metrics_.client.record_request(status, micros);
  }

 private:
  friend class ProxyTask;
  friend struct ProxyLeg;

  /// Loop-0-only connection accounting for one replica: cached idle
  /// keep-alive sockets, the count of every socket currently open against
  /// it (idle + leased + dialing), and legs parked for a free slot.
  struct UpstreamConns {
    std::vector<int> idle;
    std::size_t open{0};
    std::deque<ProxyLeg*> waiters;
  };

  static serve::ListenerConfig to_listener_config(
      const GatewayConfig& config);

  /// Replica choice for one attempt: half-open breakers get their single
  /// trial request first (real traffic is the probe that closes them);
  /// otherwise the balancing policy runs over closed-breaker healthy
  /// replicas.
  [[nodiscard]] std::optional<std::size_t> pick_replica(
      const std::vector<std::size_t>& excluded, std::int64_t now_ms);
  /// The serve-side Response for a completed upstream exchange.
  Response translate_response(ResponseParser& parser);
  /// The upstream request bytes: client headers minus hop-by-hop ones,
  /// recomputed Content-Length, canonical X-Request-Id.
  [[nodiscard]] std::string upstream_wire(const Request& req,
                                          const std::string& request_id);

  // ProxyTask's doorway to the protected HttpListener seam.
  [[nodiscard]] serve::EventLoop& proxy_loop() noexcept { return loop(); }
  void proxy_complete(serve::ResponseToken token, Response resp) {
    complete_async(token, std::move(resp));
  }
  /// Hands a freed connection slot of replica `i` to the oldest waiting
  /// leg. Loop thread only.
  void resume_waiter(std::size_t i);

  Response handle_metrics(const Request& req);
  Response handle_gateway_healthz();
  Response handle_gateway_replicas();

  GatewayConfig config_;
  ReplicaRegistry registry_;
  Balancer balancer_;
  RetryBudget budget_;
  GatewayMetrics metrics_;
  std::vector<UpstreamConns> upstream_;  ///< loop 0 only
};

}  // namespace mcmm::gateway
