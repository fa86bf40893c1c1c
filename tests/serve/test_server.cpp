// Loopback integration tests for the serve network layer: concurrent
// keep-alive clients against a real listening socket, wire-level
// conditional GETs, slow-client deadlines (408), pipelining, graceful
// shutdown draining the loops, connection placement across loops, the
// event loop's same-thread posts, and transport parity — the bytes on the
// wire equal serialize_response() over Api::handle(), through the gather
// write, partial writes and the read budget.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "data/dataset.hpp"
#include "serve/server.hpp"

namespace {

using mcmm::data::paper_matrix;
using mcmm::serve::Api;
using mcmm::serve::EpollHandler;
using mcmm::serve::EventLoop;
using mcmm::serve::LoopCounters;
using mcmm::serve::RequestParser;
using mcmm::serve::Server;
using mcmm::serve::ServerConfig;

/// Minimal blocking test client over one loopback connection.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port, int rcvbuf_bytes = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (rcvbuf_bytes > 0) {
      // Must be set before connect() so the shrunken window is what the
      // handshake advertises; used to force server-side write stalls.
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                   sizeof rcvbuf_bytes);
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }

  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  [[nodiscard]] bool connected() const { return connected_; }
  [[nodiscard]] int fd() const { return fd_; }

  bool send_raw(const std::string& wire) {
    std::size_t off = 0;
    while (off < wire.size()) {
      const ssize_t n =
          ::send(fd_, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  struct Reply {
    int status{-1};
    std::string headers;
    std::string body;
    [[nodiscard]] std::string header(const std::string& name) const {
      const std::string needle = "\r\n" + name + ": ";
      const std::size_t pos = headers.find(needle);
      if (pos == std::string::npos) return {};
      const std::size_t start = pos + needle.size();
      return headers.substr(start, headers.find('\r', start) - start);
    }
  };

  /// Reads exactly one response off the connection (keep-alive safe). A
  /// reply to HEAD has a Content-Length but no body.
  Reply read_reply(bool head = false) {
    Reply reply;
    std::size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!fill()) return reply;
    }
    reply.headers = buffer_.substr(0, header_end + 4);
    buffer_.erase(0, header_end + 4);
    if (reply.headers.rfind("HTTP/1.1 ", 0) != 0) return reply;
    reply.status = std::atoi(reply.headers.c_str() + 9);
    std::size_t content_length = 0;
    const std::string cl = reply.header("Content-Length");
    if (!cl.empty() && !head) {
      content_length = std::strtoul(cl.c_str(), nullptr, 10);
    }
    while (buffer_.size() < content_length) {
      if (!fill()) return reply;
    }
    reply.body = buffer_.substr(0, content_length);
    buffer_.erase(0, content_length);
    return reply;
  }

  Reply get(const std::string& target, const std::string& headers = "") {
    if (!send_raw("GET " + target + " HTTP/1.1\r\nHost: t\r\n" + headers +
                  "\r\n")) {
      return {};
    }
    return read_reply();
  }

  /// True when the peer closed the connection (clean EOF).
  bool at_eof() {
    if (!buffer_.empty()) return false;
    return !fill();
  }

 private:
  bool fill() {
    char chunk[8192];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_{-1};
  bool connected_{false};
  std::string buffer_;
};

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerConfig config;
    config.port = 0;  // ephemeral
    config.threads = 4;
    server_ = std::make_unique<Server>(paper_matrix(), config);
    server_->start();
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->shutdown();
      server_->join();
    }
  }

  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, ServesKeepAliveSequencesOnOneConnection) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  for (const char* target : {"/healthz", "/v1/claims", "/v1/matrix?format=txt",
                             "/healthz"}) {
    const TestClient::Reply reply = client.get(target);
    EXPECT_EQ(reply.status, 200) << target;
    EXPECT_FALSE(reply.body.empty()) << target;
    EXPECT_EQ(reply.header("Connection"), "keep-alive") << target;
  }
}

TEST_F(ServerTest, WireLevelConditionalGetGets304) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  const TestClient::Reply first = client.get("/v1/matrix?format=txt");
  ASSERT_EQ(first.status, 200);
  const std::string etag = first.header("ETag");
  ASSERT_FALSE(etag.empty());
  const TestClient::Reply second =
      client.get("/v1/matrix?format=txt", "If-None-Match: " + etag + "\r\n");
  EXPECT_EQ(second.status, 304);
  EXPECT_TRUE(second.body.empty());
  EXPECT_EQ(second.header("ETag"), etag);
  EXPECT_TRUE(second.header("Content-Length").empty());
  // The connection survives the 304 (still keep-alive).
  EXPECT_EQ(client.get("/healthz").status, 200);
}

TEST_F(ServerTest, ConcurrentClientsAllSucceed) {
  constexpr int kClients = 8;
  constexpr int kRequestsEach = 50;
  std::vector<std::thread> threads;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c, &failures] {
      TestClient client(server_->port());
      if (!client.connected()) {
        failures[c] = kRequestsEach;
        return;
      }
      const char* target = (c % 2 == 0) ? "/v1/matrix?format=json"
                                        : "/v1/cell/amd/sycl/c%2B%2B";
      for (int i = 0; i < kRequestsEach; ++i) {
        if (client.get(target).status != 200) ++failures[c];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c;
  }
  EXPECT_GE(server_->metrics().requests_total(),
            static_cast<std::uint64_t>(kClients * kRequestsEach));
}

TEST_F(ServerTest, PipelinedRequestsAreAnsweredInOrder) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_raw("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
                              "GET /v1/claims HTTP/1.1\r\nHost: t\r\n\r\n"));
  const TestClient::Reply first = client.read_reply();
  const TestClient::Reply second = client.read_reply();
  EXPECT_EQ(first.status, 200);
  EXPECT_NE(first.body.find("\"status\""), std::string::npos);
  EXPECT_EQ(second.status, 200);
  EXPECT_NE(second.body.find("\"claims\""), std::string::npos);
}

TEST_F(ServerTest, MalformedRequestGets400AndClose) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_raw("BOGUS\r\n\r\n"));
  const TestClient::Reply reply = client.read_reply();
  EXPECT_EQ(reply.status, 400);
  EXPECT_EQ(reply.header("Connection"), "close");
  EXPECT_TRUE(client.at_eof());
}

TEST_F(ServerTest, MetricsReflectTraffic) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_EQ(client.get("/healthz").status, 200);
  const TestClient::Reply metrics = client.get("/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("mcmm_http_requests_total{code=\"200\"}"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("mcmm_http_connections_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("mcmm_http_request_duration_seconds_bucket"),
            std::string::npos);
  // Per-endpoint family: the /healthz hit above must show up labelled.
  EXPECT_NE(metrics.body.find("mcmm_http_requests_by_endpoint_total{"
                              "endpoint=\"/healthz\"}"),
            std::string::npos)
      << metrics.body;
}

TEST_F(ServerTest, RequestIdIsMintedEchoedAndSanitized) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());

  const TestClient::Reply minted = client.get("/healthz");
  ASSERT_EQ(minted.status, 200);
  const std::string id = minted.header("X-Request-Id");
  ASSERT_EQ(id.size(), 16u) << id;
  for (const char c : id) {
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c)) != 0) << id;
  }

  const TestClient::Reply echoed =
      client.get("/healthz", "X-Request-Id: client-chose-this-1\r\n");
  EXPECT_EQ(echoed.header("X-Request-Id"), "client-chose-this-1");

  // A header-smuggling or non-visible-ASCII id is replaced, not echoed.
  const TestClient::Reply replaced =
      client.get("/healthz", "X-Request-Id: bad id\r\n");
  EXPECT_EQ(replaced.status, 200);
  EXPECT_NE(replaced.header("X-Request-Id"), "bad id");
  EXPECT_EQ(replaced.header("X-Request-Id").size(), 16u);
}

TEST_F(ServerTest, HealthzReportsLoadPidAndDrainState) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  const TestClient::Reply reply = client.get("/healthz");
  ASSERT_EQ(reply.status, 200);
  EXPECT_NE(reply.body.find("\"status\":\"ok\""), std::string::npos)
      << reply.body;
  EXPECT_NE(reply.body.find("\"pid\":"), std::string::npos) << reply.body;
  EXPECT_NE(reply.body.find("\"draining\":false"), std::string::npos)
      << reply.body;
  // The health request does not count itself in the reported gauge.
  EXPECT_NE(reply.body.find("\"in_flight\":0"), std::string::npos)
      << reply.body;
}

TEST(ServerOverload, ShedsWith503AndRetryAfterAtTheCap) {
  ServerConfig config;
  config.port = 0;
  config.threads = 2;
  config.max_in_flight = 1;
  Server server(paper_matrix(), config);
  server.start();

  {
    // Under the cap: normal service.
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    EXPECT_EQ(client.get("/v1/claims").status, 200);
  }

  // Pin the in-flight gauge so the next request exceeds the cap.
  server.metrics().begin_request();
  {
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    const TestClient::Reply reply = client.get("/v1/claims");
    EXPECT_EQ(reply.status, 503);
    EXPECT_EQ(reply.header("Retry-After"), "1");
  }
  server.metrics().end_request();
  {
    // Back under the cap: service resumes.
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    EXPECT_EQ(client.get("/v1/claims").status, 200);
  }

  server.shutdown();
  server.join();
}

TEST(ServerTimeouts, SlowMidRequestClientGets408) {
  ServerConfig config;
  config.port = 0;
  config.threads = 2;
  config.request_timeout_ms = 200;
  config.idle_timeout_ms = 200;
  Server server(paper_matrix(), config);
  server.start();
  {
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    // Half a request, then silence: the read deadline must fire.
    ASSERT_TRUE(client.send_raw("GET /healthz HTT"));
    const TestClient::Reply reply = client.read_reply();
    EXPECT_EQ(reply.status, 408);
    EXPECT_TRUE(client.at_eof());
  }
  {
    // An idle keep-alive connection is closed silently (no 408).
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    EXPECT_EQ(client.get("/healthz").status, 200);
    EXPECT_TRUE(client.at_eof());  // idle deadline closes it with no bytes
  }
  server.shutdown();
  server.join();
}

TEST(ServerTransport, SlowLorisFleetDoesNotStarveWorkers) {
  // Classic slow-loris: more stalled half-request connections than the
  // server has workers. On a thread-per-connection design this parks the
  // whole pool; on the readiness loop a connection that never becomes
  // readable costs nothing, so a healthy client must still be served
  // promptly — and the wheel must eventually evict every loris.
  ServerConfig config;
  config.port = 0;
  config.threads = 2;
  config.request_timeout_ms = 300;
  config.idle_timeout_ms = 300;
  Server server(paper_matrix(), config);
  server.start();

  constexpr int kLoris = 8;  // 4x the worker count
  std::vector<std::unique_ptr<TestClient>> loris;
  for (int i = 0; i < kLoris; ++i) {
    loris.push_back(std::make_unique<TestClient>(server.port()));
    ASSERT_TRUE(loris.back()->connected());
    ASSERT_TRUE(loris.back()->send_raw("GET /healthz HT"));  // ...and stall
  }

  // Every worker would be parked now if reads were blocking. The healthy
  // client must get through far sooner than the loris deadline.
  const auto t0 = std::chrono::steady_clock::now();
  TestClient healthy(server.port());
  ASSERT_TRUE(healthy.connected());
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(healthy.get("/v1/claims").status, 200) << "request " << i;
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_LT(elapsed.count(), 250) << "healthy client was starved";

  // The wheel fires each loris deadline: 408 (mid-request) then close.
  for (auto& client : loris) {
    const TestClient::Reply reply = client->read_reply();
    EXPECT_EQ(reply.status, 408);
    EXPECT_TRUE(client->at_eof());
  }
  EXPECT_GE(server.loop_counters().timer_evictions_total.load(),
            static_cast<std::uint64_t>(kLoris));
  server.shutdown();
  server.join();
}

TEST(ServerTransport, OneBytePartialWritesStillParse) {
  // A pathological client dribbling its request one byte per send() must
  // still be answered: the parser accumulates across reads and the timer
  // re-arms on progress.
  ServerConfig config;
  config.port = 0;
  config.threads = 2;
  config.request_timeout_ms = 2000;
  Server server(paper_matrix(), config);
  server.start();
  {
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    const std::string wire = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
    for (const char c : wire) {
      ASSERT_TRUE(client.send_raw(std::string(1, c)));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(client.read_reply().status, 200);
  }
  server.shutdown();
  server.join();
}

TEST(ServerTransport, MidResponseStallIsEvictedByTheWheel) {
  // A client that requests large bodies and never reads them: the server's
  // partial write re-arms for EPOLLOUT, the stall outlives the request
  // deadline, and the wheel must evict the connection instead of holding
  // its buffered responses forever.
  ServerConfig config;
  config.port = 0;
  config.threads = 2;
  config.request_timeout_ms = 300;
  config.idle_timeout_ms = 300;
  Server server(paper_matrix(), config);
  server.start();
  {
    TestClient client(server.port(), /*rcvbuf_bytes=*/4096);
    ASSERT_TRUE(client.connected());
    std::string pipeline;
    for (int i = 0; i < 400; ++i) {
      pipeline += "GET /v1/matrix?format=json HTTP/1.1\r\nHost: t\r\n\r\n";
    }
    ASSERT_TRUE(client.send_raw(pipeline));
    // Read nothing. The server must give up on us within a few deadlines.
    const auto t0 = std::chrono::steady_clock::now();
    for (;;) {
      ASSERT_LT(std::chrono::steady_clock::now() - t0,
                std::chrono::seconds(5))
          << "stalled connection was never evicted";
      pollfd pfd{};
      pfd.fd = client.fd();
      pfd.events = POLLERR | POLLHUP;
      if (::poll(&pfd, 1, 100) > 0 &&
          (pfd.revents & (POLLERR | POLLHUP)) != 0) {
        break;  // evicted: reset or closed with unread data
      }
    }
    EXPECT_GE(server.loop_counters().epollout_rearms_total.load(), 1u);
    EXPECT_GE(server.loop_counters().timer_evictions_total.load(), 1u);
  }
  // The server survives the abuse and keeps serving.
  TestClient after(server.port());
  ASSERT_TRUE(after.connected());
  EXPECT_EQ(after.get("/healthz").status, 200);
  server.shutdown();
  server.join();
}

TEST(ServerTransport, MetricsExposeEventLoopFamilies) {
  ServerConfig config;
  config.port = 0;
  config.threads = 2;
  Server server(paper_matrix(), config);
  server.start();
  {
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    ASSERT_EQ(client.get("/healthz").status, 200);
    const TestClient::Reply metrics = client.get("/metrics");
    ASSERT_EQ(metrics.status, 200);
    for (const char* family :
         {"mcmm_eventloop_open_connections", "mcmm_eventloop_wakeups_total",
          "mcmm_eventloop_accepts_total", "mcmm_eventloop_dispatches_total",
          "mcmm_eventloop_epollout_rearms_total",
          "mcmm_eventloop_timer_evictions_total"}) {
      EXPECT_NE(metrics.body.find(family), std::string::npos) << family;
    }
  }
  server.shutdown();
  server.join();
}

TEST(ServerShutdown, DrainsCleanlyUnderLoad) {
  ServerConfig config;
  config.port = 0;
  config.threads = 4;
  Server server(paper_matrix(), config);
  server.start();

  std::vector<std::thread> threads;
  std::vector<int> served(4, 0);
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&server, &served, c] {
      TestClient client(server.port());
      if (!client.connected()) return;
      // Keep issuing requests until the server closes the connection.
      for (int i = 0; i < 10000; ++i) {
        const TestClient::Reply reply = client.get("/v1/claims");
        if (reply.status != 200) break;
        ++served[c];
      }
    });
  }
  // Let the clients get going, then pull the plug.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.shutdown();
  server.join();  // must return: no hung worker, no leaked connection
  for (std::thread& t : threads) t.join();

  int total = 0;
  for (const int n : served) total += n;
  EXPECT_GT(total, 0);  // traffic flowed before the drain
  EXPECT_GE(server.metrics().requests_total(),
            static_cast<std::uint64_t>(total));
  // A new connection after shutdown must be refused.
  TestClient late(server.port());
  EXPECT_TRUE(!late.connected() || late.get("/healthz").status != 200);
}

// --- Transport parity --------------------------------------------------

/// Small two-kernel campaign, so /v1/perf joins the cached resources.
mcmm::perfport::CampaignConfig small_campaign() {
  mcmm::perfport::CampaignConfig cfg;
  cfg.sizes = {4096};
  cfg.reps = 1;
  cfg.kernels = {mcmm::perfport::PerfKernel::Triad,
                 mcmm::perfport::PerfKernel::Dot};
  return cfg;
}

/// The reference the wire must match: an Api over the same data as the
/// server's, answering through the owning Api::handle().
const Api& reference_api() {
  static const mcmm::perfport::PerfReport report =
      mcmm::perfport::run_campaign(small_campaign());
  static const Api instance(paper_matrix(), nullptr, nullptr, &report);
  return instance;
}

mcmm::serve::Request parse(const std::string& wire) {
  RequestParser parser;
  EXPECT_EQ(parser.feed(wire), RequestParser::Status::Complete) << wire;
  return parser.take_request();
}

/// What serialize_response() says the server must send for `wire`.
std::string expected_bytes(const std::string& wire, const std::string& id) {
  const mcmm::serve::Request req = parse(wire);
  return mcmm::serve::serialize_response(reference_api().handle(req),
                            req.method == "HEAD", req.keep_alive(), id);
}

std::string percent_encoded(std::string_view s) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  for (const char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      out += c;
    } else {
      out += '%';
      out += kHex[static_cast<unsigned char>(c) >> 4];
      out += kHex[static_cast<unsigned char>(c) & 0xf];
    }
  }
  return out;
}

/// Every resource the Api caches: each matrix and perf format, every cell,
/// the claims and the index.
std::vector<std::string> cached_targets() {
  std::vector<std::string> targets = {"/", "/v1/claims"};
  for (const char* format :
       {"json", "txt", "md", "csv", "html", "latex", "yaml"}) {
    targets.push_back(std::string("/v1/matrix?format=") + format);
    targets.push_back(std::string("/v1/perf?format=") + format);
  }
  for (const mcmm::SupportEntry* e : paper_matrix().entries()) {
    std::string target = "/v1/cell/";
    target += percent_encoded(mcmm::to_string(e->combo.vendor));
    target += '/';
    target += percent_encoded(mcmm::to_string(e->combo.model));
    target += '/';
    target += percent_encoded(mcmm::to_string(e->combo.language));
    targets.push_back(std::move(target));
  }
  return targets;
}

class TransportTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ServerConfig config;
    config.port = 0;
    config.threads = 2;
    config.enable_perf = true;
    config.perf_config = small_campaign();
    server_ = new Server(paper_matrix(), config);
    server_->start();
  }
  static void TearDownTestSuite() {
    server_->shutdown();
    server_->join();
    delete server_;
    server_ = nullptr;
  }

  static Server* server_;
};

Server* TransportTest::server_ = nullptr;

TEST_F(TransportTest, WireBytesMatchSerializeResponseForEveryCachedResource) {
  int compared = 0;
  for (const bool keep_alive : {true, false}) {
    for (const bool client_id : {false, true}) {
      std::unique_ptr<TestClient> client;
      for (const std::string& target : cached_targets()) {
        const std::string get = "GET " + target + " HTTP/1.1\r\n\r\n";
        const std::string etag = reference_api().handle(parse(get)).etag;
        ASSERT_FALSE(etag.empty()) << target;
        for (const char* variant : {"GET", "HEAD", "304"}) {
          const bool head = std::string_view(variant) == "HEAD";
          std::string wire = std::string(head ? "HEAD " : "GET ") + target +
                             " HTTP/1.1\r\nHost: t\r\n";
          if (std::string_view(variant) == "304") {
            wire += "If-None-Match: " + etag + "\r\n";
          }
          const std::string id = "parity-" + std::to_string(compared);
          if (client_id) wire += "X-Request-Id: " + id + "\r\n";
          if (!keep_alive) wire += "Connection: close\r\n";
          wire += "\r\n";
          if (client == nullptr) {
            client = std::make_unique<TestClient>(server_->port());
            ASSERT_TRUE(client->connected());
          }
          ASSERT_TRUE(client->send_raw(wire));
          const TestClient::Reply reply = client->read_reply(head);
          const std::string sent_id = reply.header("X-Request-Id");
          if (client_id) {
            EXPECT_EQ(sent_id, id);
          } else {
            EXPECT_EQ(sent_id.size(), mcmm::serve::kRequestIdLength);
          }
          EXPECT_EQ(reply.headers + reply.body, expected_bytes(wire, sent_id))
              << variant << " " << target;
          if (!keep_alive) {
            EXPECT_TRUE(client->at_eof()) << target;
            client.reset();
          }
          ++compared;
        }
      }
    }
  }
  EXPECT_EQ(compared, 4 * 3 * static_cast<int>(cached_targets().size()));
}

TEST_F(TransportTest, RequestSplitAcrossTwoSendsIsAnswered) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  const std::string wire =
      "GET /v1/claims HTTP/1.1\r\nHost: t\r\nX-Request-Id: split\r\n\r\n";
  const std::size_t half = wire.size() / 2;
  // The first half is read short and leaves the parser mid-request; the
  // second must raise a new event on the re-armed socket.
  ASSERT_TRUE(client.send_raw(wire.substr(0, half)));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(client.send_raw(wire.substr(half)));
  const TestClient::Reply reply = client.read_reply();
  EXPECT_EQ(reply.headers + reply.body, expected_bytes(wire, "split"));
}

TEST_F(TransportTest, PipelinedBehindAWriteArmedResponseStayInOrder) {
  // 46 KB YAML bodies into a 4 KiB receive window: once the server's send
  // buffer fills (autotuned up to tcp_wmem's 4 MiB default maximum), a
  // gather write stops mid-segment and resumes on EPOLLOUT. The smaller
  // GETs pipelined between them must come back whole and in order.
  const std::uint64_t rearms_before =
      server_->loop_counters().epollout_rearms_total.load();
  TestClient client(server_->port(), /*rcvbuf_bytes=*/4096);
  ASSERT_TRUE(client.connected());
  const char* small[] = {"/v1/cell/AMD/HIP/C%2B%2B", "/v1/claims", "/",
                         "/v1/matrix?format=csv"};
  std::string pipeline;
  std::string expected;
  for (int i = 0; i < 256; ++i) {  // 5.9 MB of responses
    const std::string id = "pipe-" + std::to_string(i);
    const std::string target =
        i % 2 == 0 ? "/v1/matrix?format=yaml" : small[(i / 2) % 4];
    const std::string wire = "GET " + target +
                             " HTTP/1.1\r\nHost: t\r\nX-Request-Id: " + id +
                             "\r\n\r\n";
    pipeline += wire;
    expected += expected_bytes(wire, id);
  }
  ASSERT_TRUE(client.send_raw(pipeline));
  std::string got;
  char chunk[4096];
  while (got.size() < expected.size()) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));  // slow
    const ssize_t n = ::recv(client.fd(), chunk, sizeof chunk, 0);
    ASSERT_GT(n, 0) << "after " << got.size() << " of " << expected.size();
    got.append(chunk, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(got.size(), expected.size());
  EXPECT_TRUE(got == expected);
  EXPECT_GT(server_->loop_counters().epollout_rearms_total.load(),
            rearms_before);
}

TEST_F(TransportTest, BurstBeyondTheReadBudgetIsAllAnswered) {
  // 320 GETs padded to ~1 KiB each: more than the 256 KiB a connection may
  // read per dispatch. After the budget yields, the re-arm must find the
  // rest with no further client bytes.
  constexpr int kRequests = 320;
  const std::string pad(900, 'x');
  std::string burst;
  std::string expected;
  for (int i = 0; i < kRequests; ++i) {
    const std::string id = "burst-" + std::to_string(i);
    const std::string wire =
        "GET /v1/cell/NVIDIA/CUDA/C%2B%2B HTTP/1.1\r\nHost: t\r\nX-Pad: " +
        pad + "\r\nX-Request-Id: " + id + "\r\n\r\n";
    burst += wire;
    expected += expected_bytes(wire, id);
  }
  ASSERT_GT(burst.size(), 256u * 1024u);
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  // Send on another thread: the replies fill the socket buffers while the
  // burst is still going out, so this thread must read at the same time.
  bool sent = false;
  std::thread sender([&] { sent = client.send_raw(burst); });
  std::string got;
  char chunk[65536];
  while (got.size() < expected.size()) {
    pollfd pfd{};
    pfd.fd = client.fd();
    pfd.events = POLLIN;
    ASSERT_EQ(::poll(&pfd, 1, 5000), 1)
        << "stalled after " << got.size() << " of " << expected.size();
    const ssize_t n = ::recv(client.fd(), chunk, sizeof chunk, 0);
    if (n <= 0) break;
    got.append(chunk, static_cast<std::size_t>(n));
  }
  sender.join();
  EXPECT_TRUE(sent);
  EXPECT_EQ(got.size(), expected.size());
  EXPECT_TRUE(got == expected);
}

// --- Loop placement ------------------------------------------------------

/// Opens `n` keep-alive connections and answers one request on each, so
/// every one of them has been accepted and placed before this returns.
void open_answered(std::uint16_t port, std::size_t n,
                   std::vector<std::unique_ptr<TestClient>>& clients) {
  for (std::size_t i = 0; i < n; ++i) {
    clients.push_back(std::make_unique<TestClient>(port));
    ASSERT_TRUE(clients.back()->connected());
    ASSERT_EQ(clients.back()->get("/healthz").status, 200);
  }
}

TEST(LoopPlacement, ConnectionsFillLoopsInOrderThenBalance) {
  ServerConfig config;
  config.port = 0;
  config.threads = 4;
  Server server(paper_matrix(), config);
  server.start();
  EXPECT_EQ(server.loops_started(), 1u);

  // One loop's share: every connection stays on loop 0.
  std::vector<std::unique_ptr<TestClient>> clients;
  open_answered(server.port(), 64, clients);
  EXPECT_EQ(server.loops_started(), 1u);
  EXPECT_EQ(server.loop_connections(), (std::vector<std::size_t>{64}));

  // 4 x 64 + 8: every loop starts, and once all hold 64 the rest spread.
  open_answered(server.port(), 4 * 64 + 8 - 64, clients);
  EXPECT_EQ(server.loops_started(), 4u);
  const std::vector<std::size_t> owned = server.loop_connections();
  ASSERT_EQ(owned.size(), 4u);
  const auto [lo, hi] = std::minmax_element(owned.begin(), owned.end());
  EXPECT_LE(*hi - *lo, 1u);
  std::size_t total = 0;
  for (const std::size_t n : owned) total += n;
  EXPECT_EQ(total, 4u * 64u + 8u);

  // Every connection, on whichever loop owns it, is answered again.
  for (const auto& client : clients) {
    EXPECT_EQ(client->get("/v1/cell/NVIDIA/CUDA/C%2B%2B").status, 200);
  }
  server.shutdown();
  server.join();
}

// --- EventLoop ------------------------------------------------------------

/// Reads one byte and posts an op from inside the handler, recording the
/// wakeup count seen by both.
struct PostingHandler final : EpollHandler {
  EventLoop* loop{nullptr};
  int fd{-1};
  std::uint64_t handler_wakeups{0};
  std::uint64_t op_wakeups{0};
  std::atomic<bool> op_ran{false};
  std::atomic<bool> stop{false};

  void on_io(std::uint32_t /*events*/) override {
    char byte = 0;
    [[maybe_unused]] const ssize_t n = ::recv(fd, &byte, 1, 0);
    handler_wakeups = loop->counters().wakeups_total.load();
    loop->post([this] {
      op_wakeups = loop->counters().wakeups_total.load();
      op_ran.store(true);
    });
  }
};

TEST(EventLoopPost, SameThreadPostRunsThisIterationWithoutAWakeup) {
  LoopCounters counters;
  EventLoop loop(&counters);
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, pair), 0);
  PostingHandler handler;
  handler.loop = &loop;
  handler.fd = pair[0];
  loop.add(pair[0], &handler, EPOLLIN);
  std::thread runner([&] { loop.run([&] { return handler.stop.load(); }); });

  ASSERT_EQ(::send(pair[1], "x", 1, MSG_NOSIGNAL), 1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!handler.op_ran.load() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(handler.op_ran.load());
  // Time for a spurious wakeup to show, had the post written the eventfd.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::uint64_t before_stop = counters.wakeups_total.load();
  handler.stop.store(true);
  loop.wake();
  runner.join();

  EXPECT_EQ(handler.op_wakeups, handler.handler_wakeups)
      << "the op must run in the iteration that posted it";
  EXPECT_EQ(before_stop, handler.handler_wakeups)
      << "a same-thread post must not wake the loop again";
  EXPECT_EQ(counters.wakeups_total.load(), handler.handler_wakeups + 1);
  ::close(pair[0]);
  ::close(pair[1]);
}

}  // namespace
