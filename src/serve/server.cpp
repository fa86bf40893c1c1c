#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/error.hpp"

namespace mcmm::serve {
namespace {

/// Per-event read budget: a firehose client yields its loop after this
/// many bytes; an EPOLL_CTL_MOD re-polls readiness, so nothing is lost.
constexpr std::size_t kReadBudget = 256 * 1024;
/// Accepts per listener wakeup; level-triggered, so the event re-fires
/// while the backlog is non-empty.
constexpr int kAcceptBatch = 128;
/// Connections a loop takes before placement moves on to the next loop:
/// about the ready connections one loop thread serves per wakeup before a
/// second thread pays for its wake-ups. Measured in EXPERIMENTS.md.
constexpr std::size_t kLoopShare = 64;
/// A client socket's registration for its whole life; EPOLLOUT joins it
/// only while a response waits for buffer space.
constexpr std::uint32_t kReadEvents = EPOLLIN | EPOLLRDHUP | EPOLLET;

enum ConnState : std::uint8_t {
  kStReading,     // waiting for request bytes
  kStWriteArmed,  // a partial response waits for EPOLLOUT
  kStAsync,       // parked behind dispatch_async(); input waits for it
};

}  // namespace

// --- Connection ----------------------------------------------------------

/// One accepted socket, owned for life by one loop: every field is touched
/// only on that loop's thread, except `loop` and `epoch`, which never
/// change after construction.
struct HttpListener::Connection final : EpollHandler {
  Connection(HttpListener* listener_, Loop* loop_, int fd_,
             const Limits& limits)
      : listener(listener_), loop(loop_), fd(fd_), parser(limits) {}

  HttpListener* listener;
  Loop* loop;
  int fd;
  ConnState state{kStReading};
  std::int64_t last_activity{0};  // loop ms of the last byte either way
  Connection* prev{nullptr};      // the owning loop's connection list
  Connection* next{nullptr};
  RequestParser parser;
  // The response in flight, sent as one gather write of up to three
  // segments: a pre-rendered header block, `outbuf` (the header section, or
  // its per-request tail after a block; reused across requests) and the
  // body, a view of the Api cache or of `out_owned`.
  std::string_view out_block;
  std::string outbuf;
  std::string out_owned;
  std::string_view out_body;
  std::size_t outoff{0};  // bytes of the three segments already sent
  bool keep_after_write{true};
  bool request_open{false};  // on_request_end() owed at write completion
  bool pending_head{false};
  bool pending_keep{true};
  std::string pending_request_id;
  std::uint64_t epoch{0};
  std::chrono::steady_clock::time_point t0{};
  Timer timer;

  void on_io(std::uint32_t /*events*/) override {
    listener->on_connection_event(this);
  }
};

/// One event loop, its thread, and the connections it owns.
struct HttpListener::Loop {
  explicit Loop(LoopCounters* counters) : ev(counters) {}

  EventLoop ev;
  std::thread thread;  // started by loop 0 (or start()); joined by join()
  /// Connections placed here and not yet closed: raised by loop 0 at
  /// placement, lowered by this loop at close.
  std::atomic<std::size_t> owned{0};
  Connection* conns{nullptr};  // this loop's thread only
  bool drain_swept{false};     // this loop's thread only
};

struct HttpListener::AcceptHandler final : EpollHandler {
  explicit AcceptHandler(HttpListener* listener_) : listener(listener_) {}
  HttpListener* listener;
  void on_io(std::uint32_t /*events*/) override { listener->accept_ready(); }
};

// --- HttpListener --------------------------------------------------------

HttpListener::HttpListener(ListenerConfig config)
    : config_(std::move(config)) {
  unsigned loops = config_.threads;
  if (loops == 0) {
    loops = std::clamp(std::thread::hardware_concurrency(), 1u, 8u);
  }
  loops_.reserve(loops);
  for (unsigned i = 0; i < loops; ++i) {
    loops_.push_back(std::make_unique<Loop>(&counters_));
  }
}

HttpListener::~HttpListener() {
  // Derived destructors already ran shutdown()+join(); this is the
  // backstop for direct/aborted construction paths.
  shutdown();
  join();
}

void HttpListener::start() {
  // Probe RLIMIT_NOFILE and raise soft -> hard so a c10k load does not die
  // on EMFILE mid-run; accepts pause at the derived ceiling instead.
  rlimit nofile{};
  std::size_t soft_limit = 1024;
  if (::getrlimit(RLIMIT_NOFILE, &nofile) == 0) {
    if (nofile.rlim_cur < nofile.rlim_max) {
      rlimit raised = nofile;
      raised.rlim_cur = raised.rlim_max;
      if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) nofile = raised;
    }
    soft_limit = nofile.rlim_cur == RLIM_INFINITY
                     ? (1u << 20)
                     : static_cast<std::size_t>(nofile.rlim_cur);
  }
  const std::size_t table = std::min<std::size_t>(soft_limit, 1u << 20);
  // Headroom for the listener, epoll, eventfd, upstream legs, and stdio.
  max_connections_ = table > 192 ? table - 64 : std::max<std::size_t>(
                                                    table / 2, 16);
  if (config_.log_fd_limit) {
    std::fprintf(stderr,
                 "[serve] RLIMIT_NOFILE soft=%zu; accepting up to %zu "
                 "concurrent connections (accepts pause at the ceiling)\n",
                 soft_limit, max_connections_);
  }

  if (config_.adopt_fd >= 0) {
    listen_fd_ = config_.adopt_fd;
    const int flags = ::fcntl(listen_fd_, F_GETFL, 0);
    ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK);
  } else {
    listen_fd_ =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
      throw Error(std::string("socket: ") + std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
      throw Error("not an IPv4 listen address: " + config_.host);
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
      throw Error("bind " + config_.host + ":" + std::to_string(config_.port) +
                  ": " + std::strerror(errno));
    }
    if (::listen(listen_fd_, config_.backlog) != 0) {
      throw Error(std::string("listen: ") + std::strerror(errno));
    }
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  bound_port_ = ntohs(bound.sin_port);

  EventLoop& acceptor = loop();
  accept_handler_ = std::make_unique<AcceptHandler>(this);
  accept_resume_timer_.on_fire = [this] {
    if (!accept_paused_) return;
    if (counters_.open_connections.load(std::memory_order_relaxed) <
        max_connections_) {
      resume_accept();
    } else {
      loop().wheel().arm(accept_resume_timer_, loop().now_ms(), 100);
    }
  };
  acceptor.add(listen_fd_, accept_handler_.get(), EPOLLIN);
  start_thread(*loops_.front());
  started_ = true;
}

void HttpListener::start_thread(Loop& l) {
  loops_started_.fetch_add(1, std::memory_order_relaxed);
  loops_running_.fetch_add(1);
  l.thread = std::thread([this, &l] { loop_main(l); });
}

void HttpListener::shutdown() noexcept {
  stop_.store(true);
  // async-signal-safe: one write(2) per eventfd
  for (const std::unique_ptr<Loop>& l : loops_) l->ev.wake();
}

void HttpListener::join() {
  if (!started_) return;
  // Loop 0 exits last (it hosts the acceptor and the gateway's upstream
  // legs), so once it is joined every other loop has left run() too.
  for (const std::unique_ptr<Loop>& l : loops_) {
    if (l->thread.joinable()) l->thread.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  started_ = false;
}

void HttpListener::run() {
  start();
  join();
}

EventLoop& HttpListener::loop() noexcept { return loops_.front()->ev; }

std::vector<std::size_t> HttpListener::loop_connections() const {
  std::vector<std::size_t> out(loops_started());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = loops_[i]->owned.load(std::memory_order_relaxed);
  }
  return out;
}

void HttpListener::loop_main(Loop& l) {
  Loop& acceptor = *loops_.front();
  l.ev.run([this, &l, &acceptor] {
    if (!stop_.load()) return false;
    if (!l.drain_swept) drain_sweep(l);
    if (l.owned.load() != 0) return false;
    return &l != &acceptor || loops_running_.load() == 1;
  });
  if (&l != &acceptor) {
    loops_running_.fetch_sub(1);
    acceptor.ev.wake();
  }
}

void HttpListener::pause_accept() noexcept {
  if (accept_paused_ || listen_fd_ < 0) return;
  accept_paused_ = true;
  loop().del(listen_fd_);
  loop().wheel().arm(accept_resume_timer_, loop().now_ms(), 100);
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "[serve] connection ceiling reached (%zu live); pausing "
                 "accepts until connections close\n",
                 static_cast<std::size_t>(counters_.open_connections.load(
                     std::memory_order_relaxed)));
  }
}

void HttpListener::resume_accept() noexcept {
  if (!accept_paused_ || listen_fd_ < 0) return;
  accept_paused_ = false;
  loop().wheel().cancel(accept_resume_timer_);
  loop().add(listen_fd_, accept_handler_.get(), EPOLLIN);
}

HttpListener::Loop& HttpListener::place() noexcept {
  Loop* fewest = nullptr;
  std::size_t fewest_owned = 0;
  for (const std::unique_ptr<Loop>& l : loops_) {
    const std::size_t owned = l->owned.load(std::memory_order_relaxed);
    if (owned < kLoopShare) return *l;
    if (fewest == nullptr || owned < fewest_owned) {
      fewest = l.get();
      fewest_owned = owned;
    }
  }
  return *fewest;
}

void HttpListener::accept_ready() {
  static const bool nodelay = std::getenv("MCMM_NO_NODELAY") == nullptr;
  for (int i = 0; i < kAcceptBatch; ++i) {
    if (counters_.open_connections.load(std::memory_order_relaxed) >=
        max_connections_) {
      pause_accept();
      return;
    }
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) {
        continue;
      }
      if (errno == EMFILE || errno == ENFILE) {
        pause_accept();  // fds exhausted elsewhere in the process
      }
      return;  // EAGAIN (drained) or the listener is gone
    }
    Loop& l = place();
    // Counted before the stop check (both sequentially consistent): a loop
    // that sees stop_ and then owned == 0 can never be handed this socket.
    l.owned.fetch_add(1);
    if (stop_.load()) {
      l.owned.fetch_sub(1);
      ::close(fd);
      continue;
    }
    if (nodelay) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
    counters_.accepts_total.fetch_add(1, std::memory_order_relaxed);
    counters_.open_connections.fetch_add(1, std::memory_order_relaxed);
    if (&l == loops_.front().get()) {
      adopt(l, fd);
      continue;
    }
    if (!l.thread.joinable()) start_thread(l);
    l.ev.post([this, &l, fd] { adopt(l, fd); });
  }
}

void HttpListener::adopt(Loop& l, int fd) {
  if (stop_.load(std::memory_order_relaxed)) {  // placed during drain
    ::close(fd);
    release(l);
    return;
  }
  auto* c = new Connection(this, &l, fd, config_.limits);
  c->epoch = next_epoch_.fetch_add(1, std::memory_order_relaxed);
  c->next = l.conns;
  if (l.conns != nullptr) l.conns->prev = c;
  l.conns = c;
  on_connection();
  const std::int64_t now = l.ev.now_ms();
  c->last_activity = now;
  c->timer.on_fire = [this, c] { conn_timer_fired(c); };
  l.ev.wheel().arm(c->timer, now, config_.idle_timeout_ms);
  l.ev.add(fd, c, kReadEvents);
}

void HttpListener::release(Loop& l) noexcept {
  l.owned.fetch_sub(1);
  counters_.open_connections.fetch_sub(1, std::memory_order_relaxed);
}

void HttpListener::on_connection_event(Connection* c) {
  // A parked request's input waits for the answer; the read after it
  // drains the socket, so this edge is not lost.
  if (c->state == kStAsync) return;
  counters_.dispatches_total.fetch_add(1, std::memory_order_relaxed);
  if (c->state == kStWriteArmed) {
    resume_write(c);
  } else {
    process_input(c);
  }
}

HttpListener::WriteResult HttpListener::flush_out(Connection* c) noexcept {
  for (;;) {
    iovec iov[3];
    std::size_t count = 0;
    std::size_t skip = c->outoff;  // a partial write resumes mid-segment
    for (const std::string_view seg :
         {c->out_block, std::string_view(c->outbuf), c->out_body}) {
      if (skip >= seg.size()) {
        skip -= seg.size();
        continue;
      }
      iov[count].iov_base = const_cast<char*>(seg.data() + skip);
      iov[count].iov_len = seg.size() - skip;
      ++count;
      skip = 0;
    }
    if (count == 0) return WriteResult::Done;
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t n = ::sendmsg(c->fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      c->outoff += static_cast<std::size_t>(n);
      c->last_activity = c->loop->ev.now_ms();
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return WriteResult::Pending;
    return WriteResult::Closed;
  }
}

void HttpListener::await_write(Connection* c) noexcept {
  c->state = kStWriteArmed;
  counters_.epollout_rearms_total.fetch_add(1, std::memory_order_relaxed);
  c->loop->ev.mod(c->fd, c, kReadEvents | EPOLLOUT);
}

void HttpListener::resume_write(Connection* c) {
  switch (flush_out(c)) {
    case WriteResult::Pending:
      return;  // EPOLLOUT stays armed
    case WriteResult::Closed:
      close_connection(c);
      return;
    case WriteResult::Done:
      c->loop->ev.mod(c->fd, c, kReadEvents);
      if (after_write_done(c)) process_input(c);
      return;
  }
}

void HttpListener::close_connection(Connection* c) noexcept {
  Loop& l = *c->loop;
  l.ev.wheel().cancel(c->timer);
  l.ev.del(c->fd);
  ::close(c->fd);
  if (c->prev != nullptr) {
    c->prev->next = c->next;
  } else {
    l.conns = c->next;
  }
  if (c->next != nullptr) c->next->prev = c->prev;
  if (c->request_open) {
    c->request_open = false;
    on_request_end();
  }
  delete c;
  release(l);
  if (&l == loops_.front().get() && accept_paused_ &&
      !stop_.load(std::memory_order_relaxed) &&
      counters_.open_connections.load(std::memory_order_relaxed) <
          max_connections_) {
    resume_accept();
  }
}

void HttpListener::conn_timer_fired(Connection* c) {
  EventLoop& ev = c->loop->ev;
  const std::int64_t now = ev.now_ms();
  std::int64_t timeout = config_.idle_timeout_ms;
  bool mid = false;
  if (c->state == kStReading) {
    mid = c->parser.mid_request();
    if (mid) timeout = config_.request_timeout_ms;
  } else if (c->state == kStWriteArmed) {
    // A peer that stops draining its response is evicted after the same
    // stall budget as a mid-request read (progress refreshes the clock).
    timeout = config_.request_timeout_ms;
  } else {
    // Async: the handler owns the answer; look again after an idle period.
    ev.wheel().arm(c->timer, now, config_.idle_timeout_ms);
    return;
  }
  const std::int64_t due =
      c->last_activity + std::max<std::int64_t>(timeout, 1);
  if (now < due) {
    ev.wheel().arm(c->timer, now, due - now);
    return;
  }
  counters_.timer_evictions_total.fetch_add(1, std::memory_order_relaxed);
  if (mid) {
    // The peer stalled mid-request: answer 408 best-effort, then close.
    on_request_done(408, 0);
    const std::string wire = serialize_response(
        error_response(408, "request timed out"), false, false);
    [[maybe_unused]] const ssize_t n =
        ::send(c->fd, wire.data(), wire.size(), MSG_NOSIGNAL);
  }
  close_connection(c);
}

void HttpListener::drain_sweep(Loop& l) {
  l.drain_swept = true;
  if (&l == loops_.front().get() && listen_fd_ >= 0) {
    if (!accept_paused_) l.ev.del(listen_fd_);
    l.ev.wheel().cancel(accept_resume_timer_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Idle keep-alive connections are closed at the request boundary they
  // are already at; mid-request/mid-response peers finish under their
  // normal deadlines.
  for (Connection* c = l.conns; c != nullptr;) {
    Connection* next = c->next;
    if (c->state == kStReading && !c->parser.mid_request()) {
      close_connection(c);
    }
    c = next;
  }
}

bool HttpListener::after_write_done(Connection* c) {
  c->out_block = {};
  c->outbuf.clear();  // keeps its capacity for the next header section
  std::string().swap(c->out_owned);  // an idle connection holds no body
  c->out_body = {};
  c->outoff = 0;
  c->state = kStReading;
  if (c->request_open) {
    c->request_open = false;
    on_request_end();
  }
  if (!c->keep_after_write || draining()) {
    close_connection(c);
    return false;
  }
  c->parser.reset();  // re-parses buffered pipelined bytes
  return true;
}

void HttpListener::process_input(Connection* c) {
  std::size_t budget = kReadBudget;
  bool drained = false;  // a short read took all the socket held
  char buf[16384];
  for (;;) {
    while (c->parser.status() == RequestParser::Status::NeedMore) {
      if (budget == 0) {
        // Firehose fairness: yield the loop. The MOD re-polls readiness,
        // which queues a fresh edge for the bytes still unread.
        c->loop->ev.mod(c->fd, c, kReadEvents);
        return;
      }
      if (!drained) {
        const std::size_t want = std::min(sizeof buf, budget);
        const ssize_t n = ::recv(c->fd, buf, want, 0);
        if (n > 0) {
          c->last_activity = c->loop->ev.now_ms();
          c->parser.feed(std::string_view(buf, static_cast<std::size_t>(n)));
          budget -= static_cast<std::size_t>(n);
          drained = static_cast<std::size_t>(n) < want;
          continue;
        }
        if (n == 0) {  // peer closed
          close_connection(c);
          return;
        }
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          close_connection(c);
          return;
        }
      }
      // Drained, by a short read or EAGAIN. No recv just to see EAGAIN:
      // the socket was empty at that read, so any byte that arrives later
      // raises a new edge.
      if (!c->parser.mid_request() && draining()) {
        close_connection(c);  // idle keep-alive at a request boundary
      }
      return;
    }
    if (c->parser.status() == RequestParser::Status::Error) {
      Response r =
          error_response(c->parser.error_status(), c->parser.error_reason());
      on_request_done(r.status, 0);
      start_error_response(c, std::move(r));
      return;
    }
    const Request req = c->parser.take_request();
    // Correlation id: echo a well-formed client-supplied one, mint one
    // otherwise, so gateway and replica logs/metrics line up per request.
    // Assigned into the connection's string, reusing its capacity.
    const std::string* supplied = req.header("x-request-id");
    if (supplied != nullptr && valid_request_id(*supplied)) {
      c->pending_request_id.assign(*supplied);
    } else {
      char id[kRequestIdLength];
      mint_request_id(id);
      c->pending_request_id.assign(id, sizeof id);
    }
    if (!finish_request(c, req)) return;
  }
}

void HttpListener::stage_response(Connection* c, Response&& resp, bool head,
                                  bool keep_alive) {
  c->out_block = resp.header_block;
  c->outbuf.clear();
  append_headers(c->outbuf, resp, keep_alive, c->pending_request_id);
  c->out_body = {};
  if (!head && resp.status != 304) {
    if (resp.header_block.empty()) {
      c->out_owned = std::move(resp.body);
      c->out_body = c->out_owned;
    } else {
      c->out_body = resp.shared_body;
    }
  }
  c->outoff = 0;
}

void HttpListener::start_error_response(Connection* c, Response&& resp) {
  c->keep_after_write = false;
  c->pending_request_id.clear();  // a request that did not parse has no id
  stage_response(c, std::move(resp), false, false);
  if (flush_out(c) == WriteResult::Pending) {
    await_write(c);  // closed once written: keep_after_write is false
  } else {
    close_connection(c);  // close after the error response either way
  }
}

bool HttpListener::finish_request(Connection* c, const Request& req) {
  c->t0 = std::chrono::steady_clock::now();
  on_request_begin();
  c->request_open = true;
  c->pending_head = req.method == "HEAD";
  c->pending_keep = req.keep_alive();
  // Park before offering the request to the async seam; the completion is
  // a post to this loop, so it runs after this call returns.
  c->state = kStAsync;
  if (dispatch_async(req, c->pending_request_id,
                     ResponseToken{c, c->epoch})) {
    return false;
  }
  c->state = kStReading;
  Response resp;
  try {
    resp = handle_request(req, c->pending_request_id);
  } catch (const std::exception& e) {
    resp = error_response(500, e.what());
  }
  return start_response(c, std::move(resp));
}

bool HttpListener::start_response(Connection* c, Response&& resp) {
  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - c->t0)
                          .count();
  on_request_done(resp.status, static_cast<std::uint64_t>(micros));
  c->keep_after_write = c->pending_keep && !draining();
  stage_response(c, std::move(resp), c->pending_head, c->keep_after_write);
  switch (flush_out(c)) {
    case WriteResult::Pending:
      await_write(c);
      return false;
    case WriteResult::Closed:
      close_connection(c);  // also ends the open request
      return false;
    case WriteResult::Done:
      return after_write_done(c);
  }
  return false;  // unreachable
}

void HttpListener::complete_async(ResponseToken token, Response resp) {
  // A parked connection is never closed before its answer, so its owning
  // loop (fixed at construction) can be read from any thread.
  auto* c = static_cast<Connection*>(token.conn);
  c->loop->ev.post([this, token, resp = std::move(resp)]() mutable {
    finish_async(token, std::move(resp));
  });
}

void HttpListener::finish_async(ResponseToken token, Response resp) {
  auto* c = static_cast<Connection*>(token.conn);
  if (c->epoch != token.epoch || c->state != kStAsync) return;  // stale
  if (start_response(c, std::move(resp))) {
    // Keep-alive survived: continue with any buffered pipelined input and
    // read what arrived while the request was parked.
    process_input(c);
  }
}

// --- Server --------------------------------------------------------------

ListenerConfig Server::to_listener_config(const ServerConfig& config) {
  ListenerConfig out;
  out.host = config.host;
  out.port = config.port;
  out.threads = config.threads;
  out.backlog = config.backlog;
  out.request_timeout_ms = config.request_timeout_ms;
  out.idle_timeout_ms = config.idle_timeout_ms;
  out.adopt_fd = config.adopt_fd;
  out.log_fd_limit = config.log_fd_limit;
  out.limits = config.limits;
  return out;
}

Server::Server(const CompatibilityMatrix& matrix, ServerConfig config)
    : HttpListener(to_listener_config(config)),
      max_in_flight_(config.max_in_flight),
      perf_report_(config.enable_perf
                       ? std::make_unique<perfport::PerfReport>(
                             perfport::run_campaign(config.perf_config))
                       : nullptr),
      api_(matrix, &metrics_, drain_flag(), perf_report_.get()) {
  metrics_.attach_loop(&loop_counters());
}

Server::~Server() {
  shutdown();
  join();
}

Response Server::handle_request(const Request& req,
                                const std::string& /*request_id*/) {
  metrics_.record_endpoint(req.path);
  if (max_in_flight_ > 0 && metrics_.in_flight() > max_in_flight_) {
    // Overload-shaped rejection: tell the caller when to come back so a
    // gateway can retry elsewhere instead of piling on.
    Response resp = error_response(503, "in-flight request cap reached");
    resp.extra_headers.emplace_back("Retry-After", "1");
    return resp;
  }
  return api_.answer(req);
}

}  // namespace mcmm::serve
