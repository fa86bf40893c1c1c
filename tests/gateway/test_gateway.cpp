// Loopback integration tests for the gateway: an in-process fleet of
// serve::Servers behind an in-process Gateway, driven over real sockets.
// Covers proxy correctness (byte-identical bodies, request-id and 304
// propagation, many client connections across the gateway's loops),
// readiness (a replica that does not answer yet is neither picked nor
// ejected), fault tolerance (kill a replica under load, zero client
// failures), overload retries, hedging (via a deliberately slow fake
// upstream), and graceful drain.
#include "gateway/gateway.hpp"

#include <arpa/inet.h>
#include <dirent.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/dataset.hpp"
#include "loopback_client.hpp"
#include "serve/server.hpp"

namespace {

using mcmm::data::paper_matrix;
using mcmm::gateway::Gateway;
using mcmm::gateway::GatewayConfig;
using mcmm::gateway::Policy;
using mcmm::gateway::ReplicaEndpoint;
using mcmm::gateway::ReplicaHealth;
using mcmm::gateway::testing::TestClient;
using mcmm::serve::Server;
using mcmm::serve::ServerConfig;

bool is_hex_id(const std::string& id) {
  if (id.size() != 16) return false;
  for (const char c : id) {
    if (std::isxdigit(static_cast<unsigned char>(c)) == 0) return false;
  }
  return true;
}

/// Waits (up to 5 s) until `n` replicas have passed a probe: a replica is
/// not picked before its first successful probe.
void wait_admitted(Gateway& gateway, std::size_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (gateway.registry().healthy_count() < n &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(gateway.registry().healthy_count(), n);
}

class GatewayTest : public ::testing::Test {
 protected:
  void start_cluster(std::size_t replicas, GatewayConfig config = {},
                     unsigned max_in_flight = 0) {
    std::vector<ReplicaEndpoint> endpoints;
    for (std::size_t i = 0; i < replicas; ++i) {
      ServerConfig server_config;
      server_config.port = 0;
      server_config.threads = 2;
      server_config.max_in_flight = max_in_flight;
      servers_.push_back(
          std::make_unique<Server>(paper_matrix(), server_config));
      servers_.back()->start();
      ReplicaEndpoint ep;
      ep.port = servers_.back()->port();
      endpoints.push_back(ep);
    }
    config.port = 0;
    config.threads = 4;
    gateway_ = std::make_unique<Gateway>(std::move(endpoints),
                                         std::move(config));
    gateway_->start();
    wait_admitted(*gateway_, replicas);
  }

  void TearDown() override {
    gateway_.reset();
    servers_.clear();
  }

  std::vector<std::unique_ptr<Server>> servers_;
  std::unique_ptr<Gateway> gateway_;
};

TEST_F(GatewayTest, ProxiedBodyIsByteIdenticalToTheReplica) {
  start_cluster(3);
  TestClient direct(servers_[0]->port());
  const auto want = direct.get("/v1/matrix?format=txt");
  ASSERT_EQ(want.status, 200);
  ASSERT_FALSE(want.body.empty());

  TestClient client(gateway_->port());
  const auto got = client.get("/v1/matrix?format=txt");
  EXPECT_EQ(got.status, 200);
  EXPECT_EQ(got.body, want.body);
  EXPECT_EQ(got.header("Content-Type"), want.header("Content-Type"));
  EXPECT_EQ(got.header("ETag"), want.header("ETag"));
}

TEST_F(GatewayTest, HundredClientConnectionsGetByteIdenticalBodies) {
  // 100 connections over a 4-loop gateway: 64 on loop 0, the rest on
  // loop 1, while every upstream leg runs on loop 0 — so half the answers
  // cross loops through complete_async().
  start_cluster(3);
  const char* targets[] = {"/v1/matrix?format=txt", "/v1/matrix",
                           "/v1/claims", "/v1/cell/AMD/HIP/C%2B%2B"};
  std::vector<std::string> want;
  TestClient direct(servers_[0]->port());
  for (const char* target : targets) {
    const auto reply = direct.get(target);
    ASSERT_EQ(reply.status, 200) << target;
    want.push_back(reply.body);
  }

  constexpr std::size_t kConnections = 100;
  std::vector<std::unique_ptr<TestClient>> clients;
  for (std::size_t i = 0; i < kConnections; ++i) {
    clients.push_back(std::make_unique<TestClient>(gateway_->port()));
    ASSERT_TRUE(clients.back()->connected());
    ASSERT_EQ(clients.back()->get("/gateway/healthz").status, 200);
  }
  EXPECT_EQ(gateway_->loops_started(), 2u);
  EXPECT_EQ(gateway_->loop_connections(),
            (std::vector<std::size_t>{64, kConnections - 64}));

  // Four client threads, each driving every fourth connection.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < kConnections; i += 4) {
        for (std::size_t k = 0; k < want.size(); ++k) {
          const auto reply = clients[i]->get(targets[(i + k) % want.size()]);
          if (reply.status != 200 ||
              reply.body != want[(i + k) % want.size()]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(GatewayTest, RequestIdIsEchoedEndToEnd) {
  start_cluster(2);
  TestClient client(gateway_->port());
  const auto reply =
      client.get("/v1/matrix", "X-Request-Id: gw-test-0042\r\n");
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.header("X-Request-Id"), "gw-test-0042");
}

TEST_F(GatewayTest, RequestIdIsMintedWhenAbsentOrInvalid) {
  start_cluster(2);
  TestClient client(gateway_->port());
  const auto minted = client.get("/v1/matrix");
  EXPECT_EQ(minted.status, 200);
  EXPECT_TRUE(is_hex_id(minted.header("X-Request-Id")))
      << "got: " << minted.header("X-Request-Id");

  const auto replaced =
      client.get("/v1/matrix", "X-Request-Id: bad id with spaces\r\n");
  EXPECT_EQ(replaced.status, 200);
  EXPECT_TRUE(is_hex_id(replaced.header("X-Request-Id")))
      << "got: " << replaced.header("X-Request-Id");
}

TEST_F(GatewayTest, WireLevelConditionalGetGets304ThroughTheProxy) {
  start_cluster(3);
  TestClient client(gateway_->port());
  const auto first = client.get("/v1/matrix");
  ASSERT_EQ(first.status, 200);
  const std::string etag = first.header("ETag");
  ASSERT_FALSE(etag.empty());

  const auto second =
      client.get("/v1/matrix", "If-None-Match: " + etag + "\r\n");
  EXPECT_EQ(second.status, 304);
  EXPECT_EQ(second.header("ETag"), etag);
  EXPECT_TRUE(second.body.empty());

  // The keep-alive connection must survive the bodiless 304.
  const auto third = client.get("/healthz");
  EXPECT_EQ(third.status, 200);
}

TEST_F(GatewayTest, GatewayHealthzAndReplicasReportTheFleet) {
  start_cluster(3);
  TestClient client(gateway_->port());
  const auto health = client.get("/gateway/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"replicas\":3"), std::string::npos)
      << health.body;
  EXPECT_NE(health.body.find("\"healthy\":3"), std::string::npos)
      << health.body;

  const auto replicas = client.get("/gateway/replicas");
  EXPECT_EQ(replicas.status, 200);
  std::size_t entries = 0;
  for (std::size_t pos = 0;
       (pos = replicas.body.find("\"host\"", pos)) != std::string::npos;
       ++pos) {
    ++entries;
  }
  EXPECT_EQ(entries, 3u) << replicas.body;
  EXPECT_NE(replicas.body.find("\"health\":\"healthy\""), std::string::npos);
}

TEST_F(GatewayTest, MetricsExposeGatewayFamilies) {
  start_cluster(2);
  TestClient client(gateway_->port());
  ASSERT_EQ(client.get("/v1/matrix").status, 200);
  const auto reply = client.get("/metrics");
  EXPECT_EQ(reply.status, 200);
  for (const char* family :
       {"mcmm_gateway_upstream_requests_total",
        "mcmm_gateway_upstream_duration_seconds_bucket",
        "mcmm_gateway_retries_total", "mcmm_gateway_hedges_total",
        "mcmm_gateway_replica_health", "mcmm_gateway_breaker_state",
        "mcmm_gateway_healthy_replicas", "mcmm_http_requests_total",
        "mcmm_eventloop_open_connections", "mcmm_eventloop_wakeups_total"}) {
    EXPECT_NE(reply.body.find(family), std::string::npos)
        << "missing family " << family;
  }
}

TEST_F(GatewayTest, KillingAReplicaUnderLoadLosesNoRequests) {
  GatewayConfig config;
  config.registry.probe_interval_ms = 50;
  config.registry.eject_after = 2;
  start_cluster(3, config);

  constexpr int kThreads = 4;
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<int> last_bad_status{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      while (!stop.load()) {
        TestClient client(gateway_->port());
        for (int i = 0; i < 20 && !stop.load(); ++i) {
          const auto reply = client.get("/v1/matrix");
          if (reply.status == 200) {
            ok.fetch_add(1);
          } else {
            failed.fetch_add(1);
            last_bad_status.store(reply.status);
          }
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // SIGKILL equivalent for an in-process replica: shut it down abruptly
  // while the gateway is mid-stream against it.
  servers_[0]->shutdown();
  servers_[0]->join();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (auto& c : clients) c.join();

  EXPECT_GT(ok.load(), 0u);
  EXPECT_EQ(failed.load(), 0u)
      << "clients saw failures through the replica kill; last status: "
      << last_bad_status.load();
  EXPECT_EQ(servers_[0]->metrics().in_flight(), 0u);
}

TEST_F(GatewayTest, AllReplicasDownYields503WithRetryAfter) {
  GatewayConfig config;
  config.registry.probe_interval_ms = 25;
  config.registry.eject_after = 2;
  start_cluster(2, config);

  for (auto& server : servers_) {
    server->shutdown();
    server->join();
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (gateway_->registry().healthy_count() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(gateway_->registry().healthy_count(), 0u);

  TestClient client(gateway_->port());
  const auto reply = client.get("/v1/matrix");
  EXPECT_EQ(reply.status, 503);
  EXPECT_FALSE(reply.header("Retry-After").empty());

  TestClient health_client(gateway_->port());
  const auto health = health_client.get("/gateway/healthz");
  EXPECT_EQ(health.status, 503);
  EXPECT_EQ(health.header("Retry-After"), "1");
}

TEST_F(GatewayTest, OverloadedReplicaIsRetriedOnAnother) {
  GatewayConfig config;
  config.policy = Policy::RoundRobin;  // first pick is replica 0
  config.registry.probe_interval_ms = 60000;  // keep probes off the gauge
  start_cluster(2, config, /*max_in_flight=*/1);

  // Pin replica 0's in-flight gauge: its next real request sees gauge 2 > 1
  // and sheds with 503 + Retry-After.
  servers_[0]->metrics().begin_request();

  TestClient client(gateway_->port());
  const auto reply = client.get("/v1/matrix");
  EXPECT_EQ(reply.status, 200);  // transparently retried on replica 1
  EXPECT_GE(gateway_->gateway_metrics().retries_total(), 1u);

  servers_[0]->metrics().end_request();
}

TEST_F(GatewayTest, FullyOverloadedFleetForwardsThe503) {
  GatewayConfig config;
  config.registry.probe_interval_ms = 60000;
  start_cluster(2, config, /*max_in_flight=*/1);
  for (auto& server : servers_) server->metrics().begin_request();

  TestClient client(gateway_->port());
  const auto reply = client.get("/v1/matrix");
  EXPECT_EQ(reply.status, 503);
  EXPECT_EQ(reply.header("Retry-After"), "1");

  for (auto& server : servers_) server->metrics().end_request();
}

TEST_F(GatewayTest, DrainsCleanlyUnderLoad) {
  start_cluster(3);
  constexpr int kThreads = 4;
  std::atomic<std::uint64_t> served{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      while (true) {
        TestClient client(gateway_->port());
        if (!client.connected()) return;
        for (int i = 0; i < 50; ++i) {
          const auto reply = client.get("/v1/matrix");
          if (reply.status != 200) return;
          served.fetch_add(1);
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gateway_->shutdown();
  gateway_->join();
  for (auto& c : clients) c.join();

  EXPECT_GT(served.load(), 0u);
  // Every in-flight request finished; nothing is stuck on the replicas.
  for (std::size_t i = 0; i < gateway_->registry().size(); ++i) {
    EXPECT_EQ(gateway_->registry().at(i).in_flight.load(), 0u);
  }
  TestClient late(gateway_->port());
  EXPECT_FALSE(late.connected() && late.get("/healthz").status == 200);
}

// --- Readiness -------------------------------------------------------------

/// A bound, listening socket nobody accepts on yet: a replica that has its
/// port but still builds its caches (as `mcmm cluster` replicas do while
/// they run the perf campaign). Connections queue in the backlog unanswered.
int unanswered_listener(std::uint16_t* port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (fd < 0 ||
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    return -1;
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  *port = ntohs(addr.sin_port);
  return fd;
}

TEST(GatewayReadiness, ReplicaNotYetAnsweringIsNeitherPickedNorEjected) {
  std::uint16_t port = 0;
  const int fd = unanswered_listener(&port);
  ASSERT_GE(fd, 0);
  GatewayConfig config;
  config.port = 0;
  config.threads = 2;
  config.registry.probe_interval_ms = 10;
  config.registry.probe_timeout_ms = 30;
  config.registry.eject_after = 1;  // one failed probe would eject
  Gateway gateway(std::vector<ReplicaEndpoint>{{"127.0.0.1", port}}, config);
  gateway.start();

  TestClient client(gateway.port());
  for (int i = 0; i < 8; ++i) {
    const auto health = client.get("/gateway/healthz");
    EXPECT_EQ(health.status, 503);
    EXPECT_EQ(health.header("Retry-After"), "1");
    EXPECT_EQ(client.get("/v1/claims").status, 503)
        << "a replica that never answered a probe must not be tried";
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  EXPECT_EQ(gateway.registry().at(0).health.load(), ReplicaHealth::Starting);
  EXPECT_EQ(gateway.registry().ejections_total(), 0u);

  // The replica comes up on the socket it was given and is admitted by
  // its first successful probe.
  ServerConfig server_config;
  server_config.threads = 1;
  server_config.adopt_fd = fd;
  Server server(paper_matrix(), server_config);
  server.start();
  wait_admitted(gateway, 1);
  EXPECT_EQ(client.get("/gateway/healthz").status, 200);
  EXPECT_EQ(client.get("/v1/claims").status, 200);
  EXPECT_EQ(gateway.registry().ejections_total(), 0u);
}

// --- Hedging -------------------------------------------------------------

/// A scriptable upstream: answers the prober's /healthz like a replica and
/// serves /v1/matrix after a configurable delay with a recognizable body.
/// Delays ride the listener's timer wheel via the async seam, so a slow
/// FakeUpstream holds any number of in-flight requests without occupying
/// a worker thread per request.
class FakeUpstream : public mcmm::serve::HttpListener {
 public:
  FakeUpstream(std::string tag, int delay_ms)
      : HttpListener(listener_config()),
        tag_(std::move(tag)),
        delay_ms_(delay_ms) {
    start();
  }
  ~FakeUpstream() override {
    shutdown();
    join();
  }

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_.load(); }

 protected:
  mcmm::serve::Response handle_request(const mcmm::serve::Request& req,
                                       const std::string&) override {
    mcmm::serve::Response resp;
    if (req.path == "/healthz") {
      resp.body = "{\"status\":\"ok\",\"pid\":" + std::to_string(::getpid()) +
                  ",\"in_flight\":0,\"draining\":false}";
      return resp;
    }
    hits_.fetch_add(1);
    resp.content_type = "text/plain";
    resp.body = tag_;
    return resp;
  }

  bool dispatch_async(const mcmm::serve::Request& req, const std::string&,
                      mcmm::serve::ResponseToken token) override {
    if (req.path == "/healthz" || delay_ms_ <= 0) {
      return false;  // answer synchronously via handle_request
    }
    hits_.fetch_add(1);
    auto* pending = new Pending;
    pending->token = token;
    pending->resp.content_type = "text/plain";
    pending->resp.body = tag_;
    pending->timer.on_fire = [this, pending] {
      complete_async(pending->token, std::move(pending->resp));
      delete pending;
    };
    // The wheel is loop-thread-only; hop there to arm.
    const int delay = delay_ms_;
    loop().post([this, pending, delay] {
      loop().wheel().arm(pending->timer, loop().now_ms(), delay);
    });
    return true;
  }

 private:
  struct Pending {
    mcmm::serve::ResponseToken token;
    mcmm::serve::Response resp;
    mcmm::serve::Timer timer;
  };

  static mcmm::serve::ListenerConfig listener_config() {
    mcmm::serve::ListenerConfig config;
    config.port = 0;
    config.threads = 2;
    return config;
  }

  std::string tag_;
  int delay_ms_;
  std::atomic<std::uint64_t> hits_{0};
};

/// Threads currently alive in this process (reads /proc/self/task).
std::size_t task_count() {
  std::size_t n = 0;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++n;
  }
  ::closedir(dir);
  return n;
}

TEST(GatewayEventDriven, SlowUpstreamsDoNotBlockGatewayThreads) {
  // 16 concurrent requests against two 300ms upstreams through a gateway
  // with only 2 workers. On the old thread-per-upstream design the workers
  // would serialize this into >= 8 * 300ms; on the readiness loop every
  // upstream round-trip is parked on the gateway's epoll, so the batch
  // finishes in roughly one delay — and the gateway spawns no extra
  // threads to do it.
  FakeUpstream a("a", 300);
  FakeUpstream b("b", 300);

  GatewayConfig config;
  config.port = 0;
  config.threads = 2;
  config.policy = Policy::RoundRobin;
  config.hedge_after_ms = 0;  // a hedge would mask the serialization
  config.registry.probe_interval_ms = 60000;
  std::vector<ReplicaEndpoint> endpoints(2);
  endpoints[0].port = a.port();
  endpoints[1].port = b.port();
  Gateway gateway(std::move(endpoints), config);
  gateway.start();
  wait_admitted(gateway, 2);

  const std::size_t baseline = task_count();
  constexpr int kClients = 16;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&] {
      TestClient client(gateway.port());
      if (client.get("/v1/matrix").status == 200) ok.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  // Mid-flight: every upstream exchange is pending. The only new threads
  // are the kClients we just spawned ourselves.
  const std::size_t during = task_count();
  for (auto& c : clients) c.join();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);

  EXPECT_EQ(ok.load(), kClients);
  EXPECT_LT(elapsed.count(), 1200)
      << "requests were serialized behind blocked gateway workers";
  EXPECT_LE(during, baseline + kClients)
      << "the gateway grew threads to wait on upstreams";
}

TEST(GatewayHedging, SlowPrimaryIsHedgedAndTheFastReplicaWins) {
  FakeUpstream slow("slow", 400);
  FakeUpstream fast("fast", 0);

  GatewayConfig config;
  config.port = 0;
  config.threads = 4;
  config.policy = Policy::RoundRobin;  // deterministic: primary is `slow`
  config.hedge_after_ms = 20;
  config.registry.probe_interval_ms = 60000;
  std::vector<ReplicaEndpoint> endpoints(2);
  endpoints[0].port = slow.port();
  endpoints[1].port = fast.port();
  Gateway gateway(std::move(endpoints), config);
  gateway.start();
  wait_admitted(gateway, 2);

  TestClient client(gateway.port());
  const auto start = std::chrono::steady_clock::now();
  const auto reply = client.get("/v1/matrix");
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);

  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.body, "fast") << "the hedge should win";
  EXPECT_LT(elapsed.count(), 350) << "reply should not wait for the slow "
                                     "primary";
  EXPECT_EQ(gateway.gateway_metrics().hedges_total(), 1u);
  EXPECT_EQ(gateway.gateway_metrics().hedge_wins_total(), 1u);
  EXPECT_EQ(fast.hits(), 1u);
}

TEST(GatewayHedging, FastPrimaryNeverHedges) {
  FakeUpstream a("a", 0);
  FakeUpstream b("b", 0);

  GatewayConfig config;
  config.port = 0;
  config.threads = 2;
  config.policy = Policy::RoundRobin;
  config.hedge_after_ms = 200;
  config.registry.probe_interval_ms = 60000;
  std::vector<ReplicaEndpoint> endpoints(2);
  endpoints[0].port = a.port();
  endpoints[1].port = b.port();
  Gateway gateway(std::move(endpoints), config);
  gateway.start();
  wait_admitted(gateway, 2);

  TestClient client(gateway.port());
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(client.get("/v1/matrix").status, 200);
  }
  EXPECT_EQ(gateway.gateway_metrics().hedges_total(), 0u);
}

TEST(GatewayHedging, PerfPathIsHedgeEligible) {
  // /v1/perf serves a cached idempotent render, so it sits in the default
  // hedge prefix list next to /v1/matrix.
  FakeUpstream slow("slow", 400);
  FakeUpstream fast("fast", 0);

  GatewayConfig config;
  config.port = 0;
  config.threads = 4;
  config.policy = Policy::RoundRobin;  // deterministic: primary is `slow`
  config.hedge_after_ms = 20;
  config.registry.probe_interval_ms = 60000;
  std::vector<ReplicaEndpoint> endpoints(2);
  endpoints[0].port = slow.port();
  endpoints[1].port = fast.port();
  Gateway gateway(std::move(endpoints), config);
  gateway.start();
  wait_admitted(gateway, 2);

  TestClient client(gateway.port());
  const auto reply = client.get("/v1/perf?format=txt");
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.body, "fast") << "the hedge should win";
  EXPECT_EQ(gateway.gateway_metrics().hedges_total(), 1u);
}

TEST(GatewayHedging, OffPrefixPathsAreNeverHedged) {
  // /v1/claims is not in the hedge prefix list: the request must ride out
  // the slow primary even though a hedge would have been faster.
  FakeUpstream slow("slow", 120);
  FakeUpstream fast("fast", 0);

  GatewayConfig config;
  config.port = 0;
  config.threads = 2;
  config.policy = Policy::RoundRobin;
  config.hedge_after_ms = 20;
  config.registry.probe_interval_ms = 60000;
  std::vector<ReplicaEndpoint> endpoints(2);
  endpoints[0].port = slow.port();
  endpoints[1].port = fast.port();
  Gateway gateway(std::move(endpoints), config);
  gateway.start();
  wait_admitted(gateway, 2);

  TestClient client(gateway.port());
  const auto reply = client.get("/v1/claims");
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.body, "slow") << "off-prefix paths must not hedge";
  EXPECT_EQ(gateway.gateway_metrics().hedges_total(), 0u);
}

}  // namespace
