// The benchmark's own tests: the judge must be right before its numbers
// mean anything. Run with `python3 benchmark/run.py --self-test`.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.hpp"
#include "loadgen.hpp"
#include "names.hpp"
#include "requests.hpp"
#include "serve/api.hpp"
#include "stats.hpp"

namespace {

using namespace mcmm;
using namespace mcmm::bm;

int g_failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,      \
                   __LINE__, #cond);                                   \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

const serve::Api& api() {
  static const serve::Api instance(data::paper_matrix());
  return instance;
}

/// A one-connection HTTP server answering through the in-process Api.
/// `on_request(i, response_bytes)` may stall or damage the i-th answer.
class FakeServer {
 public:
  explicit FakeServer(std::function<void(std::uint64_t, std::string&)> hook)
      : hook_(std::move(hook)) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), len);
    ::listen(fd_, 4);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }
  ~FakeServer() {
    thread_.join();
    ::close(fd_);
  }
  FakeServer(const FakeServer&) = delete;
  FakeServer& operator=(const FakeServer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  void serve() {
    const int c = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (c < 0) return;
    serve::RequestParser parser;
    std::uint64_t served = 0;
    char buf[65536];
    for (;;) {
      const ssize_t n = ::recv(c, buf, sizeof buf, 0);
      if (n <= 0) break;
      std::string_view chunk(buf, static_cast<std::size_t>(n));
      while (parser.feed(chunk) == serve::RequestParser::Status::Complete) {
        chunk = {};
        std::string out = serve::serialize_response(
            api().handle(parser.take_request()), false, true);
        hook_(served++, out);
        for (std::size_t off = 0; off < out.size();) {
          const ssize_t w =
              ::send(c, out.data() + off, out.size() - off, MSG_NOSIGNAL);
          if (w <= 0) break;
          off += static_cast<std::size_t>(w);
        }
        parser.reset();
      }
    }
    ::close(c);
  }

  std::function<void(std::uint64_t, std::string&)> hook_;
  int fd_{-1};
  std::uint16_t port_{0};
  std::thread thread_;
};

LoadResult load(const RequestMix& mix, std::uint16_t port, double rate,
                double seconds) {
  LoadConfig cfg;
  cfg.port = port;
  cfg.connections = 1;
  cfg.rate = rate;
  cfg.seconds = seconds;
  return run_open_loop(cfg, mix);
}

void same_seed_same_requests() {
  for (const bool plans : {false, true}) {
    const RequestMix a(api(), data::paper_matrix(), 7, plans);
    const RequestMix b(api(), data::paper_matrix(), 7, plans);
    const RequestMix c(api(), data::paper_matrix(), 8, plans);
    bool all_same = true;
    bool any_diff = false;
    for (std::uint64_t i = 0; i < 20000; ++i) {
      all_same = all_same && a.request(i).wire == b.request(i).wire;
      any_diff = any_diff || a.request(i).wire != c.request(i).wire;
    }
    CHECK(all_same);
    CHECK(any_diff);
    // Plan mixes hold only plan queries; in the GET mix every 8th request
    // is conditional and expects a 304.
    for (const RequestTemplate& t : a.templates()) {
      CHECK(plans == (t.wire.rfind("POST /v1/plan ", 0) == 0));
    }
    if (!plans) {
      CHECK(a.request(15).conditional && a.request(15).expect_status == 304);
    }
  }
}

void mix_covers_every_endpoint() {
  const RequestMix mix(api(), data::paper_matrix(), 3, false);
  std::size_t cells = 0;
  std::size_t formats = 0;
  bool claims = false;
  bool healthz = false;
  for (const RequestTemplate& t : mix.templates()) {
    if (t.conditional) continue;
    cells += t.path.rfind("/v1/cell/", 0) == 0 ? 1 : 0;
    formats += t.path.rfind("/v1/matrix?format=", 0) == 0 ? 1 : 0;
    claims = claims || t.path == "/v1/claims";
    healthz = healthz || t.path == "/healthz";
  }
  CHECK(cells == data::paper_matrix().entries().size());
  CHECK(formats == 7);
  CHECK(claims && healthz);

  // Plain GETs are uniform over the distinct resources.
  std::vector<std::size_t> drawn(mix.templates().size(), 0);
  std::size_t plain = 0;
  for (std::uint64_t i = 0; i < 70000; ++i) {
    if (i % 8 == 7) continue;
    ++drawn[mix.index_of(i)];
    ++plain;
  }
  std::size_t resources = 0;
  for (const RequestTemplate& t : mix.templates()) {
    resources += t.conditional ? 0 : 1;
  }
  const double expected =
      static_cast<double>(plain) / static_cast<double>(resources);
  for (std::size_t k = 0; k < drawn.size(); ++k) {
    if (mix.templates()[k].conditional) continue;
    CHECK(drawn[k] > 0.85 * expected && drawn[k] < 1.15 * expected);
  }
}

void stall_counts_from_due_time_and_shows_as_lag() {
  const RequestMix mix(api(), data::paper_matrix(), 1, false);
  constexpr std::uint64_t kStallAt = 200;
  FakeServer server([](std::uint64_t i, std::string&) {
    if (i == kStallAt) std::this_thread::sleep_for(std::chrono::milliseconds(300));
  });
  const LoadResult r = load(mix, server.port(), 2000, 1.0);
  CHECK(r.failed == 0);
  CHECK(r.completed == r.attempted);
  // Requests due during the stall waited for it: latency from the due time
  // includes the stall, and once the pipeline was full they were sent late.
  CHECK(quantile(r.latency_us, 1.0) > 250e3);
  CHECK(quantile(r.lag_us, 1.0) > 100e3);
  // ~600 requests came due during the stall; all of them, including the
  // ones held back and sent late, must carry the wait in their latency.
  std::size_t delayed = 0;
  for (const double us : r.latency_us) delayed += us > 100e3 ? 1 : 0;
  CHECK(delayed > 300);
  CHECK(quantile(r.latency_us, 0.5) < 250e3);
}

void corrupted_byte_fails_the_check() {
  const RequestMix mix(api(), data::paper_matrix(), 2, false);
  std::uint64_t damaged = 0;
  FakeServer server([&](std::uint64_t i, std::string& out) {
    // Damage the first body byte of one 200 answer past the 50th.
    if (damaged == 0 && i >= 50 && out.rfind("HTTP/1.1 200", 0) == 0) {
      out[out.find("\r\n\r\n") + 4] ^= 0x20;
      damaged = i;
    }
  });
  const LoadResult r = load(mix, server.port(), 1000, 0.3);
  CHECK(damaged != 0);
  CHECK(r.failed == 1);
  CHECK(r.first_failure.find("body differs") != std::string::npos);

  const RequestTemplate* t = &mix.request(0);
  for (std::uint64_t i = 0; t->live_body || t->expect_status != 200; ++i) {
    t = &mix.request(i);
  }
  std::string body = t->expect_body;
  CHECK(check_response(*t, 200, body).empty());
  body[body.size() / 2] ^= 0x01;
  CHECK(!check_response(*t, 200, body).empty());
  CHECK(!check_response(*t, 500, t->expect_body).empty());
}

void response_framing() {
  int status = 0;
  std::size_t header = 0;
  std::size_t body = 0;
  const std::string ok = "HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc";
  CHECK(parse_response(ok, &status, &header, &body) == 1);
  CHECK(status == 200 && body == 3 && header + body == ok.size());
  CHECK(parse_response(ok.substr(0, ok.size() - 1), &status, &header, &body) == 0);
  CHECK(parse_response("HTTP/1.1 304 Not Modified\r\nETag: \"x\"\r\n\r\n", &status,
                       &header, &body) == 1);
  CHECK(status == 304 && body == 0);
  CHECK(parse_response("HTTP/1.1 200 OK\r\n\r\n", &status, &header, &body) == -1);
  CHECK(parse_response("garbage\r\n\r\n", &status, &header, &body) == -1);
}

void metric_names_are_valid() {
  std::vector<std::string_view> all;
  for (const MetricSpec& m : kEndToEnd) all.push_back(m.name);
  for (const MetricSpec& m : kPerLayer) all.push_back(m.name);
  for (std::size_t i = 0; i < all.size(); ++i) {
    CHECK(valid_metric_name(all[i]));
    for (std::size_t j = i + 1; j < all.size(); ++j) CHECK(all[i] != all[j]);
  }
  CHECK(!valid_metric_name(""));
  CHECK(!valid_metric_name("p50 ms"));
  CHECK(!valid_metric_name("latency/p50"));
}

void quantiles() {
  CHECK(quantile({}, 0.5) == 0.0);
  CHECK(median({3, 1, 2}) == 2.0);
  CHECK(quantile({1, 2, 3, 4}, 0.5) == 2.5);
  CHECK(quantile({5, 1}, 1.0) == 5.0);
}

}  // namespace

int main() {
  const std::pair<const char*, void (*)()> tests[] = {
      {"same_seed_same_requests", same_seed_same_requests},
      {"mix_covers_every_endpoint", mix_covers_every_endpoint},
      {"stall_counts_from_due_time_and_shows_as_lag",
       stall_counts_from_due_time_and_shows_as_lag},
      {"corrupted_byte_fails_the_check", corrupted_byte_fails_the_check},
      {"response_framing", response_framing},
      {"metric_names_are_valid", metric_names_are_valid},
      {"quantiles", quantiles},
  };
  for (const auto& [name, fn] : tests) {
    const int before = g_failures;
    fn();
    std::printf("%s %s\n", g_failures == before ? "PASS" : "FAIL", name);
  }
  return g_failures == 0 ? 0 : 1;
}
