// Counted work: the exact number of heap allocations a request makes on its
// way through the serve path, per request class — staged in process
// (RequestParser -> Api::handle -> serialize_response), and end to end
// through a live Server, where the event-loop counters per request are
// gated too. Counts repeat exactly from run to run, where timings on a
// shared host drift, so these budgets gate the per-request work in tier-1.
// A change may lower a budget; one that raises a budget says which and why
// in CHANGES.md.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "data/dataset.hpp"
#include "serve/api.hpp"
#include "serve/http.hpp"
#include "serve/plan_grid.hpp"
#include "serve/server.hpp"

// Binary-wide allocation counter (the idiom of tests/gpusim/test_engine.cpp).
namespace {
std::atomic<long>& alloc_count() {
  static std::atomic<long> count{0};
  return count;
}
}  // namespace

// malloc/free-backed replacements; see test_engine.cpp for why GCC's
// mismatched-new-delete warning is a false positive here.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  alloc_count().fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  alloc_count().fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mcmm::serve {
namespace {

/// Allocations made by each stage of one request.
struct Allocs {
  long parse{};
  long handle{};
  long serialize{};
  friend bool operator==(const Allocs&, const Allocs&) = default;
};

std::ostream& operator<<(std::ostream& os, const Allocs& a) {
  return os << "{parse " << a.parse << ", handle " << a.handle
            << ", serialize " << a.serialize << "}";
}

const Api& api() {
  static const Api instance(data::paper_matrix());
  return instance;
}

/// Runs `wire` through parse, handle and serialize once to warm up, then
/// once more counting; `status` receives the response status.
Allocs count_request(const std::string& wire, int* status = nullptr) {
  Allocs a;
  for (int pass = 0; pass < 2; ++pass) {
    long mark = alloc_count().load(std::memory_order_relaxed);
    const auto lap = [&] {
      const long now = alloc_count().load(std::memory_order_relaxed);
      const long n = now - mark;
      mark = now;
      return n;
    };
    RequestParser parser;
    EXPECT_EQ(parser.feed(wire), RequestParser::Status::Complete) << wire;
    const Request req = parser.take_request();
    a.parse = lap();
    const Response resp = api().handle(req);
    a.handle = lap();
    const std::string out =
        serialize_response(resp, false, req.keep_alive());
    a.serialize = lap();
    if (status != nullptr) *status = resp.status;
  }
  return a;
}

std::string get_wire(const std::string& target,
                     const std::string& if_none_match = {}) {
  std::string wire = "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!if_none_match.empty()) {
    wire += "If-None-Match: " + if_none_match + "\r\n";
  }
  return wire + "\r\n";
}

TEST(WorkBudget, CachedMatrixJson) {
  int status = 0;
  EXPECT_EQ(count_request(get_wire("/v1/matrix?format=json"), &status),
            (Allocs{5, 2, 1}));
  EXPECT_EQ(status, 200);
}

TEST(WorkBudget, CachedCell) {
  int status = 0;
  EXPECT_EQ(count_request(get_wire("/v1/cell/AMD/HIP/cpp"), &status),
            (Allocs{5, 2, 1}));
  EXPECT_EQ(status, 200);
}

TEST(WorkBudget, Healthz) {
  int status = 0;
  EXPECT_EQ(count_request(get_wire("/healthz"), &status), (Allocs{3, 3, 1}));
  EXPECT_EQ(status, 200);
}

TEST(WorkBudget, NotModified) {
  RequestParser parser;
  ASSERT_EQ(parser.feed(get_wire("/v1/cell/AMD/HIP/cpp")),
            RequestParser::Status::Complete);
  const std::string etag = api().handle(parser.take_request()).etag;
  int status = 0;
  EXPECT_EQ(count_request(get_wire("/v1/cell/AMD/HIP/cpp", etag), &status),
            (Allocs{6, 1, 1}));
  EXPECT_EQ(status, 304);
}

TEST(WorkBudget, PlanQueries) {
  struct Case {
    const char* body;
    Allocs budget;
  };
  const Case cases[] = {
      // Every vendor, every model.
      {R"({"language":"C++"})", {4, 18, 1}},
      // All three vendors pinned, vendor support only.
      {R"({"language":"Fortran","must_run_on":["AMD","Intel","NVIDIA"],)"
       R"("minimum_category":"some","require_vendor_support":true})",
       {4, 5, 1}},
      // One model on one vendor.
      {R"({"language":"C++","must_run_on":["Intel"],)"
       R"("allowed_models":["OpenACC"]})",
       {4, 6, 1}},
      // No model qualifies.
      {R"({"language":"Fortran","must_run_on":["Intel"],)"
       R"("allowed_models":["CUDA"],"minimum_category":"full"})",
       {4, 3, 1}},
      // A syntax error.
      {R"({"language":"C++",})", {4, 7, 1}},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(count_request(testing::plan_wire(c.body)), c.budget) << c.body;
  }
}

TEST(WorkBudget, PlanGridMean) {
  Allocs total;
  long requests = 0;
  for (const PlannerQuery& q : testing::query_grid()) {
    const Allocs a = count_request(testing::plan_wire(testing::body_of(q)));
    total.parse += a.parse;
    total.handle += a.handle;
    total.serialize += a.serialize;
    ++requests;
  }
  ASSERT_EQ(requests, 5760);
  std::cout << "per plan request: parse "
            << static_cast<double>(total.parse) / requests << ", handle "
            << static_cast<double>(total.handle) / requests << ", serialize "
            << static_cast<double>(total.serialize) / requests << "\n";
  EXPECT_EQ(total, (Allocs{23040, 29522, 5760}));
}

// --- Through a live Server ------------------------------------------------

/// One keep-alive loopback connection speaking raw send/recv over a static
/// buffer: it allocates nothing, so every allocation counted while it runs
/// is the server's.
class RawClient {
 public:
  explicit RawClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~RawClient() { ::close(fd_); }
  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  [[nodiscard]] bool connected() const { return connected_; }

  /// Sends `wire`, reads one whole response; its status, or -1.
  int exchange(std::string_view wire, bool head) {
    for (std::size_t off = 0; off < wire.size();) {
      const ssize_t n =
          ::send(fd_, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return -1;
      off += static_cast<std::size_t>(n);
    }
    static char buf[1 << 17];
    std::size_t have = 0;
    std::size_t header_end = std::string_view::npos;
    std::size_t total = 0;
    for (;;) {
      const std::string_view got(buf, have);
      if (header_end == std::string_view::npos &&
          (header_end = got.find("\r\n\r\n")) != std::string_view::npos) {
        header_end += 4;
        std::size_t length = 0;
        const std::string_view key = "\r\nContent-Length: ";
        const std::size_t at = got.find(key);
        if (!head && at != std::string_view::npos && at < header_end) {
          const char* first = buf + at + key.size();
          std::from_chars(first, buf + header_end, length);
        }
        total = header_end + length;
      }
      if (header_end != std::string_view::npos && have >= total) break;
      if (have == sizeof buf) return -1;
      const ssize_t n = ::recv(fd_, buf + have, sizeof buf - have, 0);
      if (n <= 0) return -1;
      have += static_cast<std::size_t>(n);
    }
    if (have != total) return -1;  // nothing may follow one response
    int status = -1;
    std::from_chars(buf + 9, buf + 12, status);  // "HTTP/1.1 200"
    return status;
  }

 private:
  int fd_{-1};
  bool connected_{false};
};

/// Allocations of a warm, reused parser taking `wire` to a Request, as a
/// connection's parser does each keep-alive request.
long warm_parse_allocs(const std::string& wire) {
  RequestParser parser;
  long n = 0;
  for (int pass = 0; pass < 3; ++pass) {
    const long mark = alloc_count().load(std::memory_order_relaxed);
    EXPECT_EQ(parser.feed(wire), RequestParser::Status::Complete) << wire;
    const Request req = parser.take_request();
    parser.reset();
    n = alloc_count().load(std::memory_order_relaxed) - mark;
  }
  return n;
}

/// Per warm keep-alive request through a live server: allocations from the
/// parsed Request to the socket (the server's total less the parse), ready
/// events dispatched, and EPOLLOUT re-arms.
struct Live {
  long allocs{};
  long dispatches{};
  long rearms{};
  friend bool operator==(const Live&, const Live&) = default;
};

std::ostream& operator<<(std::ostream& os, const Live& l) {
  return os << "{allocs " << l.allocs << ", dispatches " << l.dispatches
            << ", rearms " << l.rearms << "}";
}

class WorkBudgetLive : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ServerConfig config;
    config.port = 0;
    config.threads = 2;
    server_ = new Server(data::paper_matrix(), config);
    server_->start();
  }
  static void TearDownTestSuite() {
    server_->shutdown();
    server_->join();
    delete server_;
    server_ = nullptr;
  }

  /// Sends `wire` kRequests times on one warm connection. Totals are
  /// checked to divide evenly, so the result is exact per request.
  static Live measure(const std::string& wire, int want_status,
                      bool head = false) {
    constexpr long kRequests = 64;
    const long parse = warm_parse_allocs(wire);
    RawClient client(server_->port());
    EXPECT_TRUE(client.connected());
    for (int i = 0; i < 4; ++i) {  // the connection's buffers reach size
      EXPECT_EQ(client.exchange(wire, head), want_status) << wire;
    }
    const LoopCounters& counters = server_->loop_counters();
    const long a0 = alloc_count().load(std::memory_order_relaxed);
    const auto d0 = counters.dispatches_total.load();
    const auto r0 = counters.epollout_rearms_total.load();
    for (long i = 0; i < kRequests; ++i) {
      EXPECT_EQ(client.exchange(wire, head), want_status) << wire;
    }
    const long allocs =
        alloc_count().load(std::memory_order_relaxed) - a0 - kRequests * parse;
    const auto dispatches =
        static_cast<long>(counters.dispatches_total.load() - d0);
    const auto rearms =
        static_cast<long>(counters.epollout_rearms_total.load() - r0);
    EXPECT_EQ(allocs % kRequests, 0) << wire;
    EXPECT_EQ(dispatches % kRequests, 0) << wire;
    return {allocs / kRequests, dispatches / kRequests, rearms / kRequests};
  }

  static Server* server_;
};

Server* WorkBudgetLive::server_ = nullptr;

std::string head_wire(const std::string& target) {
  return "HEAD " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
}

TEST_F(WorkBudgetLive, CachedGetsSendWithoutAllocating) {
  // The 46 KB YAML matrix and a small cell: one dispatch each, no EPOLLOUT
  // re-arm (both fit the socket buffer), no allocation past the parser.
  EXPECT_EQ(measure(get_wire("/v1/matrix?format=yaml"), 200), (Live{0, 1, 0}));
  EXPECT_EQ(measure(get_wire("/v1/cell/AMD/HIP/cpp"), 200), (Live{0, 1, 0}));
}

TEST_F(WorkBudgetLive, HeadAndNotModifiedSendWithoutAllocating) {
  EXPECT_EQ(measure(head_wire("/v1/matrix?format=yaml"), 200, true),
            (Live{0, 1, 0}));
  RequestParser parser;
  ASSERT_EQ(parser.feed(get_wire("/v1/cell/AMD/HIP/cpp")),
            RequestParser::Status::Complete);
  const std::string etag = api().handle(parser.take_request()).etag;
  EXPECT_EQ(measure(get_wire("/v1/cell/AMD/HIP/cpp", etag), 304),
            (Live{0, 1, 0}));
}

TEST_F(WorkBudgetLive, OwnedBodiesAllocateOnlyInTheHandler) {
  // The handler's own allocations (the staged Healthz and PlanQueries
  // budgets above); the body then goes out without a copy.
  EXPECT_EQ(measure(get_wire("/healthz"), 200), (Live{3, 1, 0}));
  EXPECT_EQ(measure(testing::plan_wire(R"({"language":"C++"})"), 200),
            (Live{18, 1, 0}));
}

}  // namespace
}  // namespace mcmm::serve
