#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <stdexcept>

namespace mcmm::bm {
namespace {

constexpr std::int64_t kSpinWindowNs = 2'000'000;
/// Requests in flight per connection before the generator holds the next
/// ones back (and they show as lag).
constexpr std::size_t kMaxPipeline = 32;
/// Answers still missing this long after the last due time are failures.
constexpr double kDrainSeconds = 3;

bool iequals_prefix(std::string_view line, std::string_view prefix) {
  if (line.size() < prefix.size()) return false;
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    char c = line[i];
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    if (c != prefix[i]) return false;
  }
  return true;
}

struct Pending {
  std::uint32_t tmpl{0};
  Clock::time_point due;
  std::uint64_t end_offset{0};  ///< stream offset of the request's last byte
};

struct Conn {
  int fd{-1};
  bool dead{false};
  bool want_out{false};
  std::string out;
  std::size_t out_off{0};
  std::uint64_t queued_bytes{0};
  std::uint64_t written_bytes{0};
  std::deque<Pending> inflight;   ///< sent or being sent, answer pending
  std::size_t unsent{0};          ///< trailing inflight entries not yet sent
  std::deque<Pending> waiting;    ///< due, held back by the pipeline depth
  std::string in;
};

}  // namespace

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

int parse_response(std::string_view buf, int* status, std::size_t* header_len,
                   std::size_t* body_len) {
  const std::size_t end = buf.find("\r\n\r\n");
  if (end == std::string_view::npos) {
    return buf.size() > 64 * 1024 ? -1 : 0;
  }
  const std::string_view head = buf.substr(0, end);
  if (head.size() < 12 || head.substr(0, 9) != "HTTP/1.1 ") return -1;
  int code = 0;
  for (std::size_t i = 9; i < 12; ++i) {
    if (head[i] < '0' || head[i] > '9') return -1;
    code = code * 10 + (head[i] - '0');
  }
  long length = -1;
  std::size_t pos = head.find("\r\n");
  while (pos != std::string_view::npos) {
    const std::size_t next = head.find("\r\n", pos + 2);
    const std::string_view line = head.substr(
        pos + 2, next == std::string_view::npos ? std::string_view::npos
                                                : next - pos - 2);
    if (iequals_prefix(line, "content-length:")) {
      length = std::strtol(std::string(line.substr(15)).c_str(), nullptr, 10);
    }
    pos = next;
  }
  const bool bodyless = code == 304 || code == 204 || code < 200;
  if (bodyless) length = 0;
  if (length < 0) return -1;
  const std::size_t total = end + 4 + static_cast<std::size_t>(length);
  if (buf.size() < total) return 0;
  *status = code;
  *header_len = end + 4;
  *body_len = static_cast<std::size_t>(length);
  return 1;
}

LoadResult run_open_loop(const LoadConfig& config, const RequestMix& mix) {
  // Timed waits to the microsecond: the default 50us timer slack would
  // blur every send time at the rates this generator runs.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  LoadResult result;
  const auto total =
      static_cast<std::uint64_t>(std::llround(config.rate * config.seconds));
  result.latency_us.reserve(total);
  result.lag_us.reserve(total);

  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  if (ep < 0) throw std::runtime_error("epoll_create1 failed");
  std::vector<Conn> conns(config.connections);
  for (std::size_t c = 0; c < conns.size(); ++c) {
    conns[c].fd = connect_loopback(config.port);
    if (conns[c].fd < 0) {
      for (Conn& done : conns) {
        if (done.fd >= 0) ::close(done.fd);
      }
      ::close(ep);
      throw std::runtime_error("cannot connect to port " +
                               std::to_string(config.port));
    }
    ::fcntl(conns[c].fd, F_SETFL, ::fcntl(conns[c].fd, F_GETFL) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, conns[c].fd, &ev);
  }

  const auto t0 = Clock::now() + std::chrono::milliseconds(1);
  const auto fail = [&](const std::string& why) {
    ++result.failed;
    if (result.first_failure.empty()) result.first_failure = why;
  };
  const auto kill_conn = [&](Conn& c, const std::string& why) {
    if (c.dead) return;
    c.dead = true;
    for (std::size_t i = 0; i < c.inflight.size() + c.waiting.size(); ++i) {
      fail(why);
    }
    c.inflight.clear();
    c.waiting.clear();
    c.unsent = 0;
    ::epoll_ctl(ep, EPOLL_CTL_DEL, c.fd, nullptr);
  };
  const auto put_inflight = [&](Conn& c, const Pending& p) {
    const std::string& wire = mix.templates()[p.tmpl].wire;
    c.out.append(wire);
    c.queued_bytes += wire.size();
    Pending q = p;
    q.end_offset = c.queued_bytes;
    c.inflight.push_back(q);
    ++c.unsent;
  };
  const auto flush = [&](Conn& c, std::size_t idx) {
    if (c.dead) return;
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        kill_conn(c, std::string("send: ") + std::strerror(errno));
        return;
      }
      c.out_off += static_cast<std::size_t>(n);
      c.written_bytes += static_cast<std::uint64_t>(n);
    }
    if (c.unsent > 0) {
      const auto now = Clock::now();
      for (std::size_t i = c.inflight.size() - c.unsent; i < c.inflight.size();
           ++i) {
        if (c.inflight[i].end_offset > c.written_bytes) break;
        result.lag_us.push_back(
            std::chrono::duration<double, std::micro>(now - c.inflight[i].due)
                .count());
        --c.unsent;
      }
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
    const bool want_out = !c.out.empty();
    if (want_out != c.want_out) {
      c.want_out = want_out;
      epoll_event ev{};
      ev.events = EPOLLIN | (want_out ? EPOLLOUT : 0u);
      ev.data.u64 = idx;
      ::epoll_ctl(ep, EPOLL_CTL_MOD, c.fd, &ev);
    }
  };
  const auto read_ready = [&](Conn& c, std::size_t idx) {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
      if (n > 0) {
        c.in.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      kill_conn(c, n == 0 ? "server closed the connection"
                          : std::string("recv: ") + std::strerror(errno));
      return;
    }
    const auto now = Clock::now();
    std::size_t off = 0;
    for (;;) {
      int status = 0;
      std::size_t header_len = 0;
      std::size_t body_len = 0;
      const int rc = parse_response(std::string_view(c.in).substr(off),
                                    &status, &header_len, &body_len);
      if (rc == 0) break;
      if (rc < 0 || c.inflight.empty() || c.unsent == c.inflight.size()) {
        kill_conn(c, "malformed or unsolicited response");
        return;
      }
      const Pending p = c.inflight.front();
      c.inflight.pop_front();
      const RequestTemplate& t = mix.templates()[p.tmpl];
      const std::string why = check_response(
          t, status, std::string_view(c.in).substr(off + header_len, body_len));
      if (why.empty()) {
        ++result.completed;
        if (status == 304) ++result.not_modified;
        result.latency_us.push_back(
            std::chrono::duration<double, std::micro>(now - p.due).count());
        result.due_s.push_back(static_cast<float>(seconds_between(t0, p.due)));
      } else {
        fail(why);
      }
      off += header_len + body_len;
      if (!c.waiting.empty()) {
        put_inflight(c, c.waiting.front());
        c.waiting.pop_front();
      }
    }
    c.in.erase(0, off);
    flush(c, idx);
  };

  const double period_ns = 1e9 / config.rate;
  const auto due_of = [&](std::uint64_t i) {
    return t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(
                    std::llround(static_cast<double>(i) * period_ns)));
  };
  const auto hard_end =
      due_of(total) + std::chrono::nanoseconds(static_cast<std::int64_t>(
                          kDrainSeconds * 1e9));
  std::uint64_t next = 0;
  epoll_event events[16];
  for (;;) {
    auto now = Clock::now();
    while (next < total && due_of(next) <= now) {
      const std::uint64_t i = config.first_index + next;
      const std::size_t ci = static_cast<std::size_t>(next % conns.size());
      Conn& c = conns[ci];
      ++result.attempted;
      const Pending p{static_cast<std::uint32_t>(mix.index_of(i)), due_of(next),
                      0};
      const RequestTemplate& t = mix.templates()[p.tmpl];
      if (t.conditional) ++result.conditional;
      ++next;
      if (c.dead) {
        fail("connection lost earlier");
      } else if (c.inflight.size() < kMaxPipeline) {
        put_inflight(c, p);
        flush(c, ci);
      } else {
        c.waiting.push_back(p);
      }
    }
    bool idle = next == total;
    for (const Conn& c : conns) {
      idle = idle && (c.dead || (c.inflight.empty() && c.waiting.empty()));
    }
    if (idle) break;
    now = Clock::now();
    if (now >= hard_end) {
      for (Conn& c : conns) kill_conn(c, "no answer within the drain window");
      break;
    }
    // Sleeping until the next due time would make the generator as late
    // as the host's wake-up latency (hundreds of microseconds on a busy
    // virtual machine); within kSpinWindow of a send it polls instead.
    const auto wake = next < total ? due_of(next) : hard_end;
    const std::int64_t until_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now)
            .count();
    const std::int64_t wait_ns =
        std::max<std::int64_t>(0, until_ns - kSpinWindowNs);
    timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                static_cast<long>(wait_ns % 1000000000)};
    const int n = ::epoll_pwait2(ep, events, 16, &ts, nullptr);
    for (int k = 0; k < n; ++k) {
      const auto idx = static_cast<std::size_t>(events[k].data.u64);
      Conn& c = conns[idx];
      if (c.dead) continue;
      if ((events[k].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
        read_ready(c, idx);
      }
      if ((events[k].events & EPOLLOUT) != 0) flush(c, idx);
    }
  }
  result.elapsed_s = seconds_between(t0, Clock::now());
  for (Conn& c : conns) ::close(c.fd);
  ::close(ep);
  return result;
}

std::vector<double> window_p50s_us(const LoadResult& r) {
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < r.latency_us.size(); ++i) {
    const auto w = static_cast<std::size_t>(std::max(0.0f, r.due_s[i]));
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(r.latency_us[i]);
  }
  std::vector<double> medians;
  for (std::vector<double>& w : windows) {
    if (!w.empty()) medians.push_back(median(std::move(w)));
  }
  return medians;
}

BlockingClient::BlockingClient(std::uint16_t port)
    : fd_(connect_loopback(port)) {
  if (fd_ < 0) {
    throw std::runtime_error("cannot connect to port " + std::to_string(port));
  }
}

BlockingClient::~BlockingClient() {
  if (fd_ >= 0) ::close(fd_);
}

int BlockingClient::exchange(std::string_view wire, std::string* body) {
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n =
        ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return -1;
    sent += static_cast<std::size_t>(n);
  }
  char buf[65536];
  for (;;) {
    int status = 0;
    std::size_t header_len = 0;
    std::size_t body_len = 0;
    const int rc = parse_response(in_, &status, &header_len, &body_len);
    if (rc < 0) return -1;
    if (rc == 1) {
      if (body != nullptr) body->assign(in_, header_len, body_len);
      in_.erase(0, header_len + body_len);
      return status;
    }
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return -1;
    in_.append(buf, static_cast<std::size_t>(n));
  }
}

int http_get(std::uint16_t port, const std::string& path, std::string* body) {
  try {
    BlockingClient client(port);
    return client.exchange(
        "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n", body);
  } catch (const std::runtime_error&) {
    return -1;
  }
}

}  // namespace mcmm::bm
