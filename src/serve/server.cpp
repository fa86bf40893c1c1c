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

/// Per-dispatch read budget: a firehose client yields the worker after this
/// many bytes (EPOLLONESHOT re-arm re-checks readiness, so nothing is lost).
constexpr std::size_t kReadBudget = 256 * 1024;
/// Accepts per listener wakeup; level-triggered, so the event re-fires
/// while the backlog is non-empty.
constexpr int kAcceptBatch = 128;
/// How many ready connections the loop thread itself processes between
/// epoll waits (bounds timer latency under a worker stall).
constexpr int kHelpBudget = 64;

enum ConnState : std::uint8_t {
  kStReading,     // armed for EPOLLIN; owned by the loop/epoll
  kStWriteArmed,  // armed for EPOLLOUT (partial response); owned by epoll
  kStBusy,        // dispatched; owned by a worker or the loop inline
  kStAsync,       // parked behind dispatch_async(); owned by the handler
  kStClosing,     // close posted; the loop will reap it
};

}  // namespace

// --- DispatchQueue -------------------------------------------------------

bool DispatchQueue::push(void* conn, bool notify) noexcept {
  const std::uintptr_t value = reinterpret_cast<std::uintptr_t>(conn);
  for (;;) {
    if (closed_.load(std::memory_order_relaxed) && value != kPoison) {
      return false;
    }
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    if (t - h >= kCapacity) {
      head_.wait(h, std::memory_order_relaxed);
      continue;
    }
    ring_[t % kCapacity].store(value, std::memory_order_relaxed);
    tail_.store(t + 1, std::memory_order_release);
    // Waking on the was-empty transition alone would lose wakeups here:
    // silent pushes leave the ring non-empty with every consumer asleep,
    // so a later notifying push must wake unconditionally. Elision is the
    // caller's explicit choice via notify=false, never an inference.
    if (notify) tail_.notify_all();
    return true;
  }
}

void* DispatchQueue::pop() noexcept {
  for (;;) {
    std::uint64_t h = head_.load(std::memory_order_relaxed);
    const std::uint64_t t = tail_.load(std::memory_order_acquire);
    if (h == t) {
      tail_.wait(t, std::memory_order_relaxed);
      continue;
    }
    // Read before claiming: on CAS failure another consumer owns the slot
    // and this value is discarded; the slot itself is an atomic, so a
    // concurrent producer wrap-around is not a data race.
    const std::uintptr_t value =
        ring_[h % kCapacity].load(std::memory_order_relaxed);
    if (head_.compare_exchange_weak(h, h + 1, std::memory_order_acq_rel,
                                    std::memory_order_relaxed)) {
      // A producer only blocks on a full ring, waiting on the current head
      // value; wake it just when this pop made the first space.
      if (t - h == kCapacity) head_.notify_all();
      return value == kPoison ? nullptr : reinterpret_cast<void*>(value);
    }
  }
}

void* DispatchQueue::try_pop() noexcept {
  for (;;) {
    std::uint64_t h = head_.load(std::memory_order_relaxed);
    const std::uint64_t t = tail_.load(std::memory_order_acquire);
    if (h == t) return nullptr;
    const std::uintptr_t value =
        ring_[h % kCapacity].load(std::memory_order_relaxed);
    if (value == kPoison) return nullptr;  // leave sentinels for waiters
    if (head_.compare_exchange_weak(h, h + 1, std::memory_order_acq_rel,
                                    std::memory_order_relaxed)) {
      if (t - h == kCapacity) head_.notify_all();
      return reinterpret_cast<void*>(value);
    }
  }
}

void DispatchQueue::close(std::size_t consumers) noexcept {
  closed_.store(true, std::memory_order_relaxed);
  for (std::size_t i = 0; i < consumers; ++i) {
    push(reinterpret_cast<void*>(kPoison));
  }
}

// --- Connection ----------------------------------------------------------

/// One accepted socket. Ownership moves between the loop (armed in epoll,
/// timer checks) and a parse/compute worker (dispatched) through the
/// `state` atomic; the fd is only ever closed on the loop thread, so a
/// worker holding a Connection* can never observe its fd reused.
struct HttpListener::Connection final : EpollHandler {
  Connection(HttpListener* listener_, int fd_, const Limits& limits)
      : listener(listener_), fd(fd_), parser(limits) {}

  HttpListener* listener;
  int fd;
  std::atomic<std::uint8_t> state{kStBusy};
  std::atomic<std::int64_t> last_activity{0};
  bool write_phase{false};  // dispatch payload, synchronised by the ring
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
    const std::uint8_t st = state.load(std::memory_order_relaxed);
    if (st != kStReading && st != kStWriteArmed) return;  // late/spurious
    listener->dispatch(this, st == kStWriteArmed);
  }
};

struct HttpListener::AcceptHandler final : EpollHandler {
  explicit AcceptHandler(HttpListener* listener_) : listener(listener_) {}
  HttpListener* listener;
  void on_io(std::uint32_t /*events*/) override { listener->accept_ready(); }
};

// --- HttpListener --------------------------------------------------------

HttpListener::HttpListener(ListenerConfig config)
    : config_(std::move(config)), loop_(&counters_) {}

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
  conn_table_.assign(table, nullptr);
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

  accept_handler_ = std::make_unique<AcceptHandler>(this);
  accept_resume_timer_.on_fire = [this] {
    if (!accept_paused_) return;
    if (conn_count_ < max_connections_) {
      resume_accept();
    } else {
      loop_.wheel().arm(accept_resume_timer_, loop_.now_ms(), 100);
    }
  };
  loop_.add(listen_fd_, accept_handler_.get(), EPOLLIN);

  unsigned threads = config_.threads;
  if (threads == 0) {
    threads = std::min(std::max(std::thread::hardware_concurrency(), 2u), 8u);
  }
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
  loop_thread_ = std::thread([this] { loop_main(); });
  started_ = true;
}

void HttpListener::shutdown() noexcept {
  stop_.store(true, std::memory_order_relaxed);
  loop_.wake();  // async-signal-safe: one write(2) on the eventfd
}

void HttpListener::join() {
  if (!started_) return;
  loop_thread_.join();
  queue_.close(workers_.size());
  for (std::thread& w : workers_) w.join();
  workers_.clear();
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

void HttpListener::loop_main() {
  loop_.run([this] {
    if (stop_.load(std::memory_order_relaxed) && !drain_swept_) {
      drain_sweep();
    }
    help_workers();
    silent_dispatches_ = 0;
    return stop_.load(std::memory_order_relaxed) && conn_count_ == 0;
  });
}

void HttpListener::worker_main() {
  for (;;) {
    void* p = queue_.pop();
    if (p == nullptr) break;
    process(static_cast<Connection*>(p));
  }
}

void HttpListener::help_workers() {
  // On a single-core host the workers rarely get scheduled between epoll
  // waits; the loop draining its own ring keeps the hot path free of
  // cross-thread hand-off latency. Bounded so timers and accepts cannot
  // starve behind a long ready burst.
  for (int i = 0; i < kHelpBudget; ++i) {
    void* p = queue_.try_pop();
    if (p == nullptr) return;
    process(static_cast<Connection*>(p));
  }
}

void HttpListener::pause_accept() noexcept {
  if (accept_paused_ || listen_fd_ < 0) return;
  accept_paused_ = true;
  loop_.del(listen_fd_);
  loop_.wheel().arm(accept_resume_timer_, loop_.now_ms(), 100);
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "[serve] connection ceiling reached (%zu live); pausing "
                 "accepts until connections close\n",
                 conn_count_);
  }
}

void HttpListener::resume_accept() noexcept {
  if (!accept_paused_ || listen_fd_ < 0) return;
  accept_paused_ = false;
  loop_.wheel().cancel(accept_resume_timer_);
  loop_.add(listen_fd_, accept_handler_.get(), EPOLLIN);
}

void HttpListener::accept_ready() {
  static const bool nodelay = std::getenv("MCMM_NO_NODELAY") == nullptr;
  for (int i = 0; i < kAcceptBatch; ++i) {
    if (conn_count_ >= max_connections_) {
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
    if (static_cast<std::size_t>(fd) >= conn_table_.size() ||
        stop_.load(std::memory_order_relaxed)) {
      ::close(fd);
      continue;
    }
    if (nodelay) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
    counters_.accepts_total.fetch_add(1, std::memory_order_relaxed);
    counters_.open_connections.fetch_add(1, std::memory_order_relaxed);
    auto* c = new Connection(this, fd, config_.limits);
    c->epoch = next_epoch_++;
    conn_table_[fd] = c;
    ++conn_count_;
    on_connection();
    const std::int64_t now = loop_.now_ms();
    c->last_activity.store(now, std::memory_order_relaxed);
    c->timer.on_fire = [this, c] { conn_timer_fired(c); };
    loop_.wheel().arm(c->timer, now, config_.idle_timeout_ms);
    c->state.store(kStReading, std::memory_order_release);
    loop_.add(fd, c, EPOLLIN | EPOLLRDHUP | EPOLLET | EPOLLONESHOT);
  }
}

void HttpListener::dispatch(Connection* c, bool write_phase) noexcept {
  c->write_phase = write_phase;
  c->state.store(kStBusy, std::memory_order_relaxed);
  counters_.dispatches_total.fetch_add(1, std::memory_order_relaxed);
  // dispatch() only runs on the loop thread, and help_workers() drains up
  // to kHelpBudget entries later in the same loop iteration — so the first
  // kHelpBudget dispatches per iteration skip the worker wake entirely.
  // Beyond that the burst exceeds what the loop will drain itself and the
  // workers must be woken. (The ring's release/acquire publishes the
  // connection fields set above either way.)
  if (silent_dispatches_ < kHelpBudget) {
    ++silent_dispatches_;
    queue_.push(c, /*notify=*/false);
  } else {
    queue_.push(c);
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
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return WriteResult::Pending;
    return WriteResult::Closed;
  }
}

void HttpListener::rearm_read(Connection* c) noexcept {
  // last_activity is refreshed before the state store: a wheel tick is at
  // least 10 ms, so the eviction check can never fire inside the window
  // between the store and the epoll_ctl re-arm.
  c->last_activity.store(EventLoop::steady_ms(), std::memory_order_relaxed);
  c->state.store(kStReading, std::memory_order_release);
  loop_.mod(c->fd, c, EPOLLIN | EPOLLRDHUP | EPOLLET | EPOLLONESHOT);
}

void HttpListener::rearm_write(Connection* c) noexcept {
  c->last_activity.store(EventLoop::steady_ms(), std::memory_order_relaxed);
  c->state.store(kStWriteArmed, std::memory_order_release);
  counters_.epollout_rearms_total.fetch_add(1, std::memory_order_relaxed);
  loop_.mod(c->fd, c, EPOLLOUT | EPOLLET | EPOLLONESHOT);
}

void HttpListener::post_close(Connection* c) {
  c->state.store(kStClosing, std::memory_order_release);
  loop_.post([this, c] { close_connection(c); });
}

void HttpListener::close_connection(Connection* c) noexcept {
  if (c->fd < 0 || conn_table_[static_cast<std::size_t>(c->fd)] != c) return;
  loop_.wheel().cancel(c->timer);
  loop_.del(c->fd);
  ::close(c->fd);
  conn_table_[static_cast<std::size_t>(c->fd)] = nullptr;
  --conn_count_;
  counters_.open_connections.fetch_sub(1, std::memory_order_relaxed);
  if (c->request_open) {
    c->request_open = false;
    on_request_end();
  }
  delete c;
  if (accept_paused_ && !stop_.load(std::memory_order_relaxed) &&
      conn_count_ < max_connections_) {
    resume_accept();
  }
}

void HttpListener::conn_timer_fired(Connection* c) {
  const std::uint8_t st = c->state.load(std::memory_order_acquire);
  const std::int64_t now = loop_.now_ms();
  if (st == kStReading) {
    const bool mid = c->parser.mid_request();
    const std::int64_t timeout =
        std::max(mid ? config_.request_timeout_ms : config_.idle_timeout_ms, 1);
    const std::int64_t due =
        c->last_activity.load(std::memory_order_relaxed) + timeout;
    if (now >= due) {
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
      return;
    }
    loop_.wheel().arm(c->timer, now, due - now);
  } else if (st == kStWriteArmed) {
    // A peer that stops draining its response is evicted after the same
    // stall budget as a mid-request read (progress refreshes the clock).
    const std::int64_t due =
        c->last_activity.load(std::memory_order_relaxed) +
        std::max(config_.request_timeout_ms, 1);
    if (now >= due) {
      counters_.timer_evictions_total.fetch_add(1, std::memory_order_relaxed);
      close_connection(c);
      return;
    }
    loop_.wheel().arm(c->timer, now, due - now);
  } else if (st != kStClosing) {
    // Busy/async: owned elsewhere; look again after an idle period.
    loop_.wheel().arm(c->timer, now, config_.idle_timeout_ms);
  }
}

void HttpListener::drain_sweep() {
  drain_swept_ = true;
  if (listen_fd_ >= 0) {
    if (!accept_paused_) loop_.del(listen_fd_);
    loop_.wheel().cancel(accept_resume_timer_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Idle keep-alive connections are closed at the request boundary they
  // are already at; mid-request/mid-response peers finish under their
  // normal deadlines.
  for (std::size_t fd = 0; fd < conn_table_.size(); ++fd) {
    Connection* c = conn_table_[fd];
    if (c == nullptr) continue;
    if (c->state.load(std::memory_order_acquire) == kStReading &&
        !c->parser.mid_request()) {
      close_connection(c);
    }
  }
}

void HttpListener::process(Connection* c) {
  if (c->write_phase) {
    c->write_phase = false;
    switch (flush_out(c)) {
      case WriteResult::Pending:
        rearm_write(c);
        return;
      case WriteResult::Closed:
        post_close(c);
        return;
      case WriteResult::Done:
        if (!after_write_done(c)) return;
        break;
    }
  }
  process_input(c);
}

bool HttpListener::after_write_done(Connection* c) {
  c->out_block = {};
  c->outbuf.clear();  // keeps its capacity for the next header section
  std::string().swap(c->out_owned);  // an idle connection holds no body
  c->out_body = {};
  c->outoff = 0;
  if (c->request_open) {
    c->request_open = false;
    on_request_end();
  }
  if (!c->keep_after_write || draining()) {
    post_close(c);
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
        rearm_read(c);  // firehose fairness; readiness re-checked at re-arm
        return;
      }
      if (!drained) {
        const std::size_t want = std::min(sizeof buf, budget);
        const ssize_t n = ::recv(c->fd, buf, want, 0);
        if (n > 0) {
          c->parser.feed(std::string_view(buf, static_cast<std::size_t>(n)));
          budget -= static_cast<std::size_t>(n);
          drained = static_cast<std::size_t>(n) < want;
          continue;
        }
        if (n == 0) {  // peer closed
          post_close(c);
          return;
        }
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          post_close(c);
          return;
        }
      }
      // Drained, by a short read or EAGAIN. No recv just to see EAGAIN: the
      // EPOLLONESHOT re-arm re-polls readiness, so bytes that arrived since
      // still raise an event.
      if (!c->parser.mid_request() && draining()) {
        post_close(c);  // idle keep-alive at a request boundary: drain now
      } else {
        rearm_read(c);
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
  switch (flush_out(c)) {
    case WriteResult::Pending:
      rearm_write(c);
      return;
    default:
      post_close(c);  // close after the error response either way
      return;
  }
}

bool HttpListener::finish_request(Connection* c, const Request& req) {
  c->t0 = std::chrono::steady_clock::now();
  on_request_begin();
  c->request_open = true;
  c->pending_head = req.method == "HEAD";
  c->pending_keep = req.keep_alive();
  // Park *before* offering the request to the async seam: a fast async
  // completion may race back through the loop before this thread resumes.
  c->state.store(kStAsync, std::memory_order_release);
  if (dispatch_async(req, c->pending_request_id,
                     ResponseToken{c, c->epoch})) {
    return false;
  }
  c->state.store(kStBusy, std::memory_order_relaxed);
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
      rearm_write(c);
      return false;
    case WriteResult::Closed:
      if (c->request_open) {
        c->request_open = false;
        on_request_end();
      }
      post_close(c);
      return false;
    case WriteResult::Done:
      return after_write_done(c);
  }
  return false;  // unreachable
}

bool HttpListener::token_live(const ResponseToken& token,
                              Connection** out) noexcept {
  auto* c = static_cast<Connection*>(token.conn);
  if (c == nullptr || c->epoch != token.epoch ||
      c->state.load(std::memory_order_acquire) != kStAsync) {
    return false;
  }
  *out = c;
  return true;
}

void HttpListener::complete_async(ResponseToken token, Response resp) {
  loop_.post([this, token, resp = std::move(resp)]() mutable {
    finish_async(token, std::move(resp));
  });
}

void HttpListener::finish_async(ResponseToken token, Response resp) {
  Connection* c = nullptr;
  if (!token_live(token, &c)) return;  // token already consumed or stale
  c->state.store(kStBusy, std::memory_order_relaxed);
  if (start_response(c, std::move(resp))) {
    // Keep-alive survived: continue with any buffered pipelined input on
    // the loop thread (recv hits EAGAIN and re-arms in the common case).
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
