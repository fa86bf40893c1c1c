// loadgen: an epoll-based keep-alive HTTP load generator for `mcmm serve`
// and `mcmm gateway`, reporting req/s and latency percentiles per
// connection tier into BENCH_serve.json / BENCH_gateway.json
// (EXPERIMENTS.md "Serving the knowledge base" and "Fault injection").
//
//   loadgen [--host H] [--port P] [--connections N[,N2,...]]
//           [--requests M] [--total T] [--json PATH] [--path /v1/...]...
//           [--cluster R] [--fault] [--golden PATH] [--no-nodelay]
//
// One thread drives every connection through a readiness loop — the same
// shape as the server's transport — so a single loadgen process can hold
// tens of thousands of open keep-alive connections (RLIMIT_NOFILE is
// raised to the hard limit at startup). --connections accepts a
// comma-separated ladder of tiers ("8,512,10000"); each tier first ramps
// every connection open (in accept-backlog-sized waves), then issues its
// requests, so the peak concurrently-held connection count equals the
// tier size and is reported as max_held_connections.
//
// With no --port (or --port 0) it starts an in-process `serve::Server` on
// an ephemeral loopback port first — the CI perf job and the ctest smoke
// run need no orchestration. --cluster R instead forks R serve replicas
// and fronts them with an in-process `gateway::Gateway`, so the whole
// replicated stack runs from one binary. Every connection issues M
// pipeline-free keep-alive requests round-robin over the path mix (every
// 8th request is a conditional GET revalidating a captured ETag, so the
// 304 path is exercised under load too). Any response other than 200/304 —
// or any transport error — counts as a failure and fails the run.
//
// --total T divides T requests evenly over a tier's connections instead
// of the per-connection --requests M — the 10k-connection tier wants
// "many connections, a few requests each", not 10k x 5000.
//
// --fault SIGKILLs one replica once a third of the total requests have
// completed: through the gateway the run must still finish with zero
// failures (health ejection + budgeted retries absorb the crash). With an
// external target, the victim pid is discovered via /gateway/replicas.
// --golden FILE byte-compares every non-conditional 200 body on a
// "format=txt" path against FILE, proving proxied bytes are unmodified.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.hpp"
#include "gateway/gateway.hpp"
#include "gateway/supervisor.hpp"
#include "serve/server.hpp"

namespace {

struct Options {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = start an in-process server (or cluster)
  std::vector<unsigned> tiers{8};
  unsigned requests = 5000;  // per connection
  std::uint64_t total = 0;   // per tier; overrides --requests when set
  std::string json_path = "BENCH_serve.json";
  std::vector<std::string> paths;
  unsigned cluster = 0;  // replicas behind an in-process gateway
  bool fault = false;    // SIGKILL one replica mid-run
  bool nodelay = true;   // TCP_NODELAY on client sockets (--no-nodelay)
  std::string golden_path;  // byte-match 200 bodies on format=txt paths
};

struct TierResult {
  unsigned connections = 0;
  unsigned requests_per_connection = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t golden_mismatches = 0;
  unsigned max_held = 0;  // peak concurrently-open connections
  double ramp_seconds = 0.0;
  double elapsed_seconds = 0.0;
  double rps = 0.0;
  std::uint32_t p50 = 0, p90 = 0, p99 = 0, worst = 0;
  std::map<int, std::uint64_t> by_status;
};

/// Requests completed across all tiers, for fault-injection timing.
std::atomic<std::uint64_t> g_completed{0};

/// Raises RLIMIT_NOFILE soft -> hard; returns the effective soft limit.
unsigned long raise_nofile_limit() {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 1024;
  if (lim.rlim_cur < lim.rlim_max) {
    rlimit want = lim;
    want.rlim_cur = lim.rlim_max;
    if (::setrlimit(RLIMIT_NOFILE, &want) == 0) lim = want;
  }
  if (lim.rlim_cur == RLIM_INFINITY) return 1u << 20;
  return static_cast<unsigned long>(lim.rlim_cur);
}

/// Minimal blocking HTTP/1.1 client over one keep-alive connection, for
/// the one-shot control-plane requests (pid discovery, /metrics scrape).
class Client {
 public:
  bool connect_to(const std::string& host, int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return false;
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
           0;
  }

  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool send_request(const std::string& wire) {
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

  /// Reads one response; returns the status code (or -1 on transport
  /// error) and the body when `body` is non-null.
  int read_response(std::string* body = nullptr) {
    std::string headers;
    std::size_t header_end = std::string::npos;
    for (;;) {
      header_end = buffer_.find("\r\n\r\n");
      if (header_end != std::string::npos) break;
      if (!fill()) return -1;
    }
    headers = buffer_.substr(0, header_end + 4);
    buffer_.erase(0, header_end + 4);

    if (headers.rfind("HTTP/1.1 ", 0) != 0 || headers.size() < 12) return -1;
    const int status = std::atoi(headers.c_str() + 9);

    std::size_t content_length = 0;
    const std::size_t cl = headers.find("\r\nContent-Length: ");
    if (cl != std::string::npos) {
      content_length = std::strtoul(headers.c_str() + cl + 18, nullptr, 10);
    }
    while (buffer_.size() < content_length) {
      if (!fill()) return -1;
    }
    if (body != nullptr) body->assign(buffer_, 0, content_length);
    buffer_.erase(0, content_length);
    return status;
  }

 private:
  bool fill() {
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_{-1};
  std::string buffer_;
};

/// One GET with Connection: close; empty string unless the answer is 200.
std::string http_get_once(const std::string& host, int port,
                          const std::string& path) {
  Client client;
  if (!client.connect_to(host, port)) return {};
  if (!client.send_request("GET " + path + " HTTP/1.1\r\nHost: " + host +
                           "\r\nConnection: close\r\n\r\n")) {
    return {};
  }
  std::string body;
  return client.read_response(&body) == 200 ? body : std::string{};
}

/// The readiness-loop engine: one thread, one epoll set, every connection
/// a small state machine (mirror of the server's transport). Connections
/// ramp open in waves no larger than the server's listen backlog, then
/// hold open for the whole tier; a connection that finishes its requests
/// idles instead of closing, so the tier's concurrency stays at its peak.
class LoadEngine {
 public:
  LoadEngine(const Options& opt, const std::string& golden)
      : opt_(opt), golden_(golden) {}

  TierResult run_tier(unsigned connections, unsigned per_conn) {
    out_ = TierResult{};
    TierResult& out = out_;
    out.connections = connections;
    out.requests_per_connection = per_conn;

    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
      out.failed = static_cast<std::uint64_t>(connections) * per_conn;
      return out;
    }
    conns_.assign(connections, Conn{});
    for (Conn& c : conns_) c.etags.assign(opt_.paths.size(), std::string{});
    per_conn_ = per_conn;
    latencies_.clear();
    latencies_.reserve(static_cast<std::size_t>(connections) * per_conn);
    held_ = 0;
    out.max_held = 0;

    // Phase 1: ramp every connection open. Waves stay below the server's
    // listen backlog so no SYN is dropped into a 1s kernel retry.
    const auto ramp_t0 = std::chrono::steady_clock::now();
    std::size_t next_dial = 0;
    std::size_t settled = 0;  // connected or failed
    std::size_t dialing = 0;
    constexpr std::size_t kWave = 256;
    while (settled < conns_.size()) {
      while (dialing < kWave && next_dial < conns_.size()) {
        Conn& c = conns_[next_dial];
        c.index = next_dial;
        ++next_dial;
        if (dial(c)) {
          ++dialing;
        } else {
          conn_failed(c, out);
          ++settled;
        }
      }
      if (dialing == 0) continue;
      epoll_event events[256];
      const int n = ::epoll_wait(epoll_fd_, events, 256, 1000);
      for (int i = 0; i < n; ++i) {
        Conn& c = *static_cast<Conn*>(events[i].data.ptr);
        if (c.phase != Phase::Connecting) continue;
        int err = 0;
        socklen_t len = sizeof err;
        ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
        --dialing;
        ++settled;
        if (err != 0) {
          conn_failed(c, out);
          continue;
        }
        c.phase = Phase::Ready;
        ++held_;
        out.max_held = std::max(out.max_held, held_);
      }
    }
    out.ramp_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      ramp_t0)
            .count();

    // Phase 2: every open connection issues its requests.
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t active = 0;
    for (Conn& c : conns_) {
      if (c.phase != Phase::Ready) continue;
      ++active;
      next_request(c);
    }
    auto last_progress = std::chrono::steady_clock::now();
    std::uint64_t last_completed = out.completed;
    while (active > 0) {
      epoll_event events[256];
      const int n = ::epoll_wait(epoll_fd_, events, 256, 1000);
      for (int i = 0; i < n; ++i) {
        Conn& c = *static_cast<Conn*>(events[i].data.ptr);
        const bool was_live = c.phase == Phase::Sending ||
                              c.phase == Phase::Receiving;
        if (!was_live) continue;
        if (c.phase == Phase::Sending) try_send(c, out);
        if (c.phase == Phase::Receiving) try_recv(c, out);
        if (c.phase == Phase::Idle || c.phase == Phase::Failed) --active;
      }
      const auto now = std::chrono::steady_clock::now();
      if (out.completed != last_completed) {
        last_completed = out.completed;
        last_progress = now;
      } else if (now - last_progress > std::chrono::seconds(30)) {
        // Total stall: fail whatever is still in flight rather than hang.
        for (Conn& c : conns_) {
          if (c.phase == Phase::Sending || c.phase == Phase::Receiving) {
            conn_failed(c, out);
            --active;
          }
        }
      }
    }
    out.elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    out.rps = out.elapsed_seconds > 0
                  ? static_cast<double>(out.completed) / out.elapsed_seconds
                  : 0.0;

    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
      c.fd = -1;
    }
    ::close(epoll_fd_);
    epoll_fd_ = -1;

    std::sort(latencies_.begin(), latencies_.end());
    out.p50 = percentile(0.50);
    out.p90 = percentile(0.90);
    out.p99 = percentile(0.99);
    out.worst = latencies_.empty() ? 0 : latencies_.back();
    return out;
  }

 private:
  enum class Phase : std::uint8_t {
    Unused,
    Connecting,
    Ready,      // connected, no request in flight (barrier / all done)
    Sending,
    Receiving,
    Idle,       // finished all its requests; held open until tier end
    Failed
  };

  struct Conn {
    int fd{-1};
    Phase phase{Phase::Unused};
    std::size_t index{0};
    unsigned done{0};  // requests completed on this connection
    std::size_t send_off{0};
    bool conditional{false};
    bool check_golden{false};
    std::size_t which{0};
    std::string request;
    std::string buffer;
    std::vector<std::string> etags;
    std::chrono::steady_clock::time_point t0;
  };

  bool dial(Conn& c) {
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (c.fd < 0) return false;
    if (opt_.nodelay) {
      int one = 1;
      ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(opt_.port));
    if (::inet_pton(AF_INET, opt_.host.c_str(), &addr.sin_addr) != 1) {
      return false;
    }
    const int rc =
        ::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    if (rc != 0 && errno != EINPROGRESS) return false;
    c.phase = Phase::Connecting;
    epoll_event ev{};
    ev.events = EPOLLOUT;
    ev.data.ptr = &c;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c.fd, &ev);
    return true;
  }

  void rearm(Conn& c, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.ptr = &c;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
  }

  void conn_failed(Conn& c, TierResult& out) {
    if (c.fd >= 0) {
      ::close(c.fd);
      c.fd = -1;
    }
    if (c.phase == Phase::Sending || c.phase == Phase::Receiving ||
        c.phase == Phase::Ready) {
      // The rest of this connection's quota can never complete.
      out.failed += per_conn_ - c.done;
      if (held_ > 0) --held_;
    } else {
      out.failed += per_conn_;  // never connected
    }
    c.phase = Phase::Failed;
  }

  void next_request(Conn& c) {
    if (c.done >= per_conn_) {
      // Hold the connection open until tier end, but drop it from the
      // epoll set: a level-triggered EPOLLHUP from a server-side idle
      // eviction would otherwise spin the loop.
      c.phase = Phase::Idle;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
      return;
    }
    c.which = c.done % opt_.paths.size();
    c.conditional = (c.done % 8 == 7) && !c.etags[c.which].empty();
    c.check_golden = !golden_.empty() && !c.conditional &&
                     opt_.paths[c.which].find("format=txt") !=
                         std::string::npos;
    c.request = "GET " + opt_.paths[c.which] +
                " HTTP/1.1\r\nHost: " + opt_.host + "\r\n";
    if (c.conditional) {
      c.request += "If-None-Match: " + c.etags[c.which] + "\r\n";
    }
    c.request += "\r\n";
    c.send_off = 0;
    c.phase = Phase::Sending;
    c.t0 = std::chrono::steady_clock::now();
    try_send(c, out_);
  }

  void try_send(Conn& c, TierResult& out) {
    while (c.send_off < c.request.size()) {
      const ssize_t n = ::send(c.fd, c.request.data() + c.send_off,
                               c.request.size() - c.send_off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          rearm(c, EPOLLOUT);
          return;
        }
        conn_failed(c, out);
        return;
      }
      c.send_off += static_cast<std::size_t>(n);
    }
    c.phase = Phase::Receiving;
    rearm(c, EPOLLIN | EPOLLRDHUP);
  }

  void try_recv(Conn& c, TierResult& out) {
    char chunk[16384];
    for (;;) {
      const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        conn_failed(c, out);
        return;
      }
      if (n == 0) {
        conn_failed(c, out);
        return;
      }
      c.buffer.append(chunk, static_cast<std::size_t>(n));
      if (finish_response(c, out)) {
        if (c.phase != Phase::Receiving) return;  // idle/failed; stop reading
        continue;  // next request already sent; keep draining
      }
    }
  }

  /// Tries to complete the in-flight response from c.buffer. Returns true
  /// when a full response was consumed (and the next request started).
  bool finish_response(Conn& c, TierResult& out) {
    const std::size_t header_end = c.buffer.find("\r\n\r\n");
    if (header_end == std::string::npos) return false;
    const std::string_view headers(c.buffer.data(), header_end + 4);
    if (headers.substr(0, 9) != "HTTP/1.1 " || headers.size() < 12) {
      conn_failed(c, out);
      return true;
    }
    const int status = std::atoi(c.buffer.c_str() + 9);
    std::size_t content_length = 0;
    const std::size_t cl = headers.find("\r\nContent-Length: ");
    if (cl != std::string_view::npos) {
      content_length = std::strtoul(c.buffer.c_str() + cl + 18, nullptr, 10);
    }
    if (c.buffer.size() < header_end + 4 + content_length) return false;

    const auto usec = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - c.t0)
                          .count();
    std::string etag;
    const std::size_t at = headers.find("\r\nETag: ");
    if (at != std::string_view::npos) {
      const std::size_t start = at + 8;
      const std::size_t end = headers.find('\r', start);
      etag.assign(headers.substr(start, end - start));
    }

    ++out.by_status[status];
    const bool expected = c.conditional ? status == 304 : status == 200;
    if (!expected) ++out.failed;
    if (c.check_golden && status == 200) {
      const std::string_view body(c.buffer.data() + header_end + 4,
                                  content_length);
      if (body != golden_) {
        ++out.golden_mismatches;
        ++out.failed;
      }
    }
    if (!etag.empty()) c.etags[c.which] = etag;
    latencies_.push_back(static_cast<std::uint32_t>(usec));
    ++out.completed;
    g_completed.fetch_add(1, std::memory_order_relaxed);

    c.buffer.erase(0, header_end + 4 + content_length);
    ++c.done;
    next_request(c);
    return true;
  }

  std::uint32_t percentile(double p) {
    if (latencies_.empty()) return 0;
    const auto rank = static_cast<std::size_t>(
        p * static_cast<double>(latencies_.size() - 1) + 0.5);
    return latencies_[std::min(rank, latencies_.size() - 1)];
  }

  const Options& opt_;
  const std::string& golden_;
  int epoll_fd_{-1};
  unsigned per_conn_{0};
  unsigned held_{0};
  std::vector<Conn> conns_;
  std::vector<std::uint32_t> latencies_;
  TierResult out_;  // the in-progress tier; next_request() feeds it
};

/// Extracts the integer after `"key":` in a flat JSON object; -1 if absent.
long json_long_field(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtol(body.c_str() + at + needle.size(), nullptr, 10);
}

/// Value of an un-labelled Prometheus sample, or 0 when absent.
std::uint64_t scrape_counter(const std::string& text,
                             const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + " ", 0) == 0) {
      return std::strtoull(line.c_str() + name.size() + 1, nullptr, 10);
    }
  }
  return 0;
}

int usage() {
  std::cerr << "usage: loadgen [--host H] [--port P]\n"
               "               [--connections N[,N2,...]] [--requests M]\n"
               "               [--total T] [--json PATH] [--path /v1/..]\n"
               "               [--cluster R] [--fault] [--golden FILE]\n"
               "               [--no-nodelay]\n"
               "(no --port: starts an in-process mcmm serve first;\n"
               " --connections accepts a comma-separated tier ladder;\n"
               " --total T: T requests per tier, divided over connections;\n"
               " --cluster R: forks R replicas behind an in-process "
               "gateway;\n"
               " --fault: SIGKILL one replica once a third of the run is "
               "done;\n"
               " --golden FILE: byte-match 200 format=txt bodies against "
               "FILE)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--host") {
      const char* v = value();
      if (v == nullptr) return usage();
      opt.host = v;
    } else if (a == "--port") {
      const char* v = value();
      if (v == nullptr) return usage();
      opt.port = std::atoi(v);
    } else if (a == "--connections") {
      const char* v = value();
      if (v == nullptr) return usage();
      opt.tiers.clear();
      std::istringstream list(v);
      std::string item;
      while (std::getline(list, item, ',')) {
        const int n = std::atoi(item.c_str());
        if (n <= 0) return usage();
        opt.tiers.push_back(static_cast<unsigned>(n));
      }
      if (opt.tiers.empty()) return usage();
    } else if (a == "--requests") {
      const char* v = value();
      if (v == nullptr) return usage();
      opt.requests = static_cast<unsigned>(std::atoi(v));
    } else if (a == "--total") {
      const char* v = value();
      if (v == nullptr) return usage();
      opt.total = std::strtoull(v, nullptr, 10);
    } else if (a == "--json") {
      const char* v = value();
      if (v == nullptr) return usage();
      opt.json_path = v;
    } else if (a == "--path") {
      const char* v = value();
      if (v == nullptr) return usage();
      opt.paths.emplace_back(v);
    } else if (a == "--cluster") {
      const char* v = value();
      if (v == nullptr) return usage();
      opt.cluster = static_cast<unsigned>(std::atoi(v));
      if (opt.cluster == 0 || opt.cluster > 64) return usage();
    } else if (a == "--fault") {
      opt.fault = true;
    } else if (a == "--no-nodelay") {
      opt.nodelay = false;
    } else if (a == "--golden") {
      const char* v = value();
      if (v == nullptr) return usage();
      opt.golden_path = v;
    } else {
      return usage();
    }
  }
  if (opt.tiers.empty() || (opt.requests == 0 && opt.total == 0)) {
    return usage();
  }
  if (opt.cluster > 0 && opt.port != 0) {
    std::cerr << "loadgen: --cluster starts its own gateway; drop --port\n";
    return 2;
  }
  if (opt.fault && opt.cluster == 0 && opt.port == 0) {
    std::cerr << "loadgen: --fault needs --cluster or a gateway --port\n";
    return 2;
  }
  if (opt.paths.empty()) {
    // Default mix: the acceptance-criterion render, a cell lookup, the
    // claims document, and the cheap liveness probe.
    opt.paths = {"/v1/matrix?format=txt", "/v1/cell/AMD/SYCL/C%2B%2B",
                 "/v1/claims", "/healthz"};
  }

  const unsigned long fd_budget = raise_nofile_limit();
  const unsigned biggest_tier =
      *std::max_element(opt.tiers.begin(), opt.tiers.end());
  const bool in_process = opt.port == 0;  // server shares this fd table
  const unsigned long fd_needed =
      static_cast<unsigned long>(biggest_tier) * (in_process ? 2 : 1) + 256;
  if (fd_needed > fd_budget) {
    std::cerr << "loadgen: tier of " << biggest_tier << " connections needs ~"
              << fd_needed << " fds but RLIMIT_NOFILE allows " << fd_budget
              << (in_process
                      ? "; target an external server (--host/--port) so "
                        "client and server draw on separate fd tables, or "
                        "raise ulimit -n\n"
                      : "; raise ulimit -n\n");
    return 2;
  }

  std::string golden;
  if (!opt.golden_path.empty()) {
    std::ifstream in(opt.golden_path, std::ios::binary);
    if (!in) {
      std::cerr << "loadgen: cannot read " << opt.golden_path << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    golden = buf.str();
  }

  // In-process targets. The forked cluster must exist before any thread
  // does (gateway construction starts the health prober).
  std::vector<mcmm::gateway::ReplicaProcess> replicas;
  std::unique_ptr<mcmm::gateway::Gateway> gateway;
  std::unique_ptr<mcmm::serve::Server> server;
  if (opt.cluster > 0) {
    mcmm::gateway::SupervisorConfig sup;
    replicas = mcmm::gateway::spawn_replicas(opt.cluster, sup);
    std::vector<mcmm::gateway::ReplicaEndpoint> backends;
    backends.reserve(replicas.size());
    for (const auto& r : replicas) {
      backends.push_back(mcmm::gateway::ReplicaEndpoint{"127.0.0.1", r.port});
    }
    mcmm::gateway::GatewayConfig cfg;
    cfg.port = 0;
    gateway =
        std::make_unique<mcmm::gateway::Gateway>(std::move(backends), cfg);
    gateway->start();
    // A replica takes traffic only after its first successful probe; load
    // starts once every replica has passed one.
    const auto ready_by =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (gateway->registry().healthy_count() < opt.cluster) {
      if (std::chrono::steady_clock::now() > ready_by) {
        std::cerr << "loadgen: replicas never passed a health probe\n";
        return 2;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    opt.port = gateway->port();
    opt.host = "127.0.0.1";
    std::cout << "loadgen: started " << opt.cluster
              << "-replica in-process gateway on 127.0.0.1:" << opt.port
              << "\n";
  } else if (opt.port == 0) {
    mcmm::serve::ServerConfig cfg;
    cfg.port = 0;
    server = std::make_unique<mcmm::serve::Server>(
        mcmm::data::paper_matrix(), cfg);
    server->start();
    opt.port = server->port();
    opt.host = "127.0.0.1";
    std::cout << "loadgen: started in-process mcmm serve on 127.0.0.1:"
              << opt.port << "\n";
  }

  // Per-tier request quota.
  const auto tier_per_conn = [&opt](unsigned conns) -> unsigned {
    if (opt.total == 0) return opt.requests;
    const std::uint64_t per = opt.total / conns;
    return static_cast<unsigned>(std::max<std::uint64_t>(per, 1));
  };

  // Fault injection: once a third of the run has completed, SIGKILL one
  // replica — a forked one directly, an external one via the pid the
  // gateway's /gateway/replicas endpoint reports.
  std::uint64_t total = 0;
  for (const unsigned conns : opt.tiers) {
    total += static_cast<std::uint64_t>(conns) * tier_per_conn(conns);
  }
  std::atomic<bool> fault_stop{false};
  long fault_pid = -1;
  std::thread fault_thread;
  if (opt.fault) {
    if (!replicas.empty()) {
      fault_pid = replicas.front().pid;
    } else {
      const std::string body =
          http_get_once(opt.host, opt.port, "/gateway/replicas");
      fault_pid = json_long_field(body, "pid");
      if (fault_pid <= 0) {
        std::cerr << "loadgen: --fault could not discover a replica pid "
                     "from /gateway/replicas\n";
        return 2;
      }
    }
    fault_thread = std::thread([&fault_stop, fault_pid, total] {
      while (!fault_stop.load(std::memory_order_relaxed)) {
        if (g_completed.load(std::memory_order_relaxed) >= total / 3) {
          ::kill(static_cast<pid_t>(fault_pid), SIGKILL);
          std::cout << "loadgen: FAULT injected — SIGKILLed replica pid "
                    << fault_pid << "\n";
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }

  LoadEngine engine(opt, golden);
  std::vector<TierResult> results;
  std::uint64_t failures = 0;
  std::uint64_t golden_mismatches = 0;
  std::uint64_t completed = 0;
  std::map<int, std::uint64_t> by_status;
  for (const unsigned conns : opt.tiers) {
    const unsigned per_conn = tier_per_conn(conns);
    TierResult tier = engine.run_tier(conns, per_conn);
    std::cout << "loadgen: tier " << conns << " connections x " << per_conn
              << " keep-alive requests: held " << tier.max_held
              << " open, completed " << tier.completed << ", failed "
              << tier.failed << ", "
              << static_cast<std::uint64_t>(tier.rps) << " req/s\n"
              << "  latency usec: p50 " << tier.p50 << ", p90 " << tier.p90
              << ", p99 " << tier.p99 << ", max " << tier.worst << "\n";
    failures += tier.failed;
    golden_mismatches += tier.golden_mismatches;
    completed += tier.completed;
    for (const auto& [code, n] : tier.by_status) by_status[code] += n;
    results.push_back(std::move(tier));
  }

  if (fault_thread.joinable()) {
    fault_stop.store(true, std::memory_order_relaxed);
    fault_thread.join();
  }

  // Resiliency counters, captured before teardown: directly from the
  // in-process gateway, or scraped from an external gateway's /metrics.
  std::uint64_t retries = 0;
  std::uint64_t hedges = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t budget_exhausted = 0;
  const bool gateway_run = opt.cluster > 0 || opt.fault;
  if (gateway != nullptr) {
    const auto& m = gateway->gateway_metrics();
    retries = m.retries_total();
    hedges = m.hedges_total();
    hedge_wins = m.hedge_wins_total();
    budget_exhausted = m.budget_exhausted_total();
  } else if (gateway_run) {
    const std::string text = http_get_once(opt.host, opt.port, "/metrics");
    retries = scrape_counter(text, "mcmm_gateway_retries_total");
    hedges = scrape_counter(text, "mcmm_gateway_hedges_total");
    hedge_wins = scrape_counter(text, "mcmm_gateway_hedge_wins_total");
    budget_exhausted =
        scrape_counter(text, "mcmm_gateway_retry_budget_exhausted_total");
  }

  if (gateway != nullptr) {
    gateway->shutdown();
    gateway->join();
  }
  if (!replicas.empty()) {
    mcmm::gateway::terminate_replicas(replicas, 5000);
  }
  if (server != nullptr) {
    server->shutdown();
    server->join();
  }

  std::cout << "loadgen: all tiers: completed " << completed << ", failed "
            << failures << "\n";
  for (const auto& [code, n] : by_status) {
    std::cout << "  status " << code << ": " << n << "\n";
  }
  if (gateway_run) {
    std::cout << "  gateway: retries " << retries << ", hedges " << hedges
              << " (won " << hedge_wins << "), budget-exhausted "
              << budget_exhausted << "\n";
  }
  if (!golden.empty()) {
    std::cout << "  golden: " << golden_mismatches << " mismatch(es)\n";
  }

  std::ofstream json(opt.json_path);
  json << "{\n  \"schema\": \""
       << (gateway_run ? "mcmm-gateway-bench-v2" : "mcmm-serve-bench-v2")
       << "\",\n"
       << "  \"completed_requests\": " << completed << ",\n"
       << "  \"failed_requests\": " << failures << ",\n"
       << "  \"nodelay\": " << (opt.nodelay ? "true" : "false") << ",\n"
       << "  \"tiers\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const TierResult& t = results[i];
    char rps_text[32];
    std::snprintf(rps_text, sizeof rps_text, "%.0f", t.rps);
    json << "    {\"connections\": " << t.connections
         << ", \"requests_per_connection\": " << t.requests_per_connection
         << ", \"max_held_connections\": " << t.max_held
         << ", \"completed\": " << t.completed
         << ", \"failed\": " << t.failed
         << ", \"ramp_seconds\": " << t.ramp_seconds
         << ", \"elapsed_seconds\": " << t.elapsed_seconds
         << ", \"requests_per_second\": " << rps_text
         << ", \"latency_usec\": {\"p50\": " << t.p50 << ", \"p90\": "
         << t.p90 << ", \"p99\": " << t.p99 << ", \"max\": " << t.worst
         << "}}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  if (gateway_run) {
    json << "  \"replicas\": " << (opt.cluster > 0 ? opt.cluster : 0)
         << ",\n"
         << "  \"fault_injected\": " << (opt.fault ? "true" : "false")
         << ",\n"
         << "  \"retries\": " << retries << ",\n"
         << "  \"hedges\": " << hedges << ",\n"
         << "  \"hedge_wins\": " << hedge_wins << ",\n"
         << "  \"retry_budget_exhausted\": " << budget_exhausted << ",\n";
  }
  if (!golden.empty()) {
    json << "  \"golden_mismatches\": " << golden_mismatches << ",\n";
  }
  json << "  \"status_counts\": {";
  bool first = true;
  for (const auto& [code, n] : by_status) {
    if (!first) json << ", ";
    first = false;
    json << "\"" << code << "\": " << n;
  }
  json << "},\n  \"paths\": [";
  first = true;
  for (const std::string& p : opt.paths) {
    if (!first) json << ", ";
    first = false;
    json << "\"" << p << "\"";
  }
  json << "]\n}\n";
  std::cout << "wrote " << opt.json_path << "\n";

  return failures == 0 ? 0 : 1;
}
