#pragma once
// The network front end of mcmm serve: edge-triggered epoll readiness loops
// (serve/event_loop.hpp), each owning its connections for life. A loop
// reads, parses, calls the handler and writes on its own thread, so a
// request never changes threads and a connection is registered with epoll
// once: EPOLLIN|EPOLLRDHUP|EPOLLET from accept on, EPOLLOUT added only
// while a response is partly written.
//
// Loop 0 accepts on the one listening socket and places each connection:
// on the first loop, in index order, that owns fewer than kLoopShare (64),
// or, once every loop owns that many, on the loop that owns the fewest. A
// loop's thread starts with its first connection, so light traffic runs on
// one thread and 512 connections spread over every loop.
//
// The loop is split from the application: HttpListener owns sockets,
// threads, parsing, deadlines, and response framing, and hands each parsed
// request to a virtual handle_request(). serve::Server plugs the knowledge
// base in; gateway::Gateway (DESIGN.md §3.3) plugs a reverse proxy into
// the very same loops — its upstream legs ride loop 0 through
// dispatch_async()/complete_async(), so a proxied request in flight costs
// a state machine, not a blocked thread.
//
// Robustness posture (see DESIGN.md §3.2): deadlines live in a timer
// wheel per loop, not in per-read poll(2) calls — a stalled mid-request
// peer gets 408, an idle keep-alive peer is closed silently, a peer that
// stops draining its response is evicted; the parser's size caps turn
// header/body bombs into 413/414/431; RLIMIT_NOFILE is raised to the hard
// limit at startup and accepts pause at the ceiling instead of dying on
// EMFILE; SIGTERM (via shutdown()) stops the acceptor, lets in-flight
// requests finish, closes keep-alive connections at the next request
// boundary, and joins every thread before run() returns.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/matrix.hpp"
#include "serve/api.hpp"
#include "serve/event_loop.hpp"
#include "serve/http.hpp"
#include "serve/metrics.hpp"

namespace mcmm::serve {

/// Socket/loop configuration shared by every HttpListener.
struct ListenerConfig {
  std::string host{"127.0.0.1"};
  std::uint16_t port{8080};  ///< 0 picks an ephemeral port (see port())
  unsigned threads{0};       ///< event loops (threads); 0 = min(hw, 8)
  /// listen(2) queue depth. A c10k ramp dials connections far faster than
  /// one epoll iteration can accept them; 128 overflows the SYN queue and
  /// strands clients in 1s kernel retransmit cycles.
  int backlog{1024};
  int request_timeout_ms{5000};  ///< mid-request read stall -> 408
  int idle_timeout_ms{5000};     ///< keep-alive with no next request -> close
  /// Adopt an already-bound, already-listening socket instead of binding
  /// host:port (the cluster supervisor binds in the parent and hands each
  /// forked replica its fd). -1 binds normally. The listener owns the fd.
  int adopt_fd{-1};
  /// Print the probed fd limit / connection ceiling at startup (the CLI
  /// sets this; tests keep it quiet).
  bool log_fd_limit{false};
  Limits limits{};
};

/// Opaque handle to one parsed-but-unanswered request, held by an
/// asynchronous handler between dispatch_async() and complete_async().
struct ResponseToken {
  void* conn{nullptr};
  std::uint64_t epoch{0};
};

/// The reusable HTTP/1.1 server loop. Derived classes implement
/// handle_request() (called concurrently from the loop threads, each for
/// the connections it owns) and may observe traffic through the on_*()
/// hooks. Every response is stamped with an X-Request-Id header — the
/// client's own when it sent a well-formed one, a freshly minted id
/// otherwise — so log lines and metrics correlate across a gateway/replica
/// hop.
///
/// Derived destructors MUST call shutdown() + join() (loop threads
/// dispatch virtually into the derived class until join() returns).
class HttpListener {
 public:
  explicit HttpListener(ListenerConfig config);
  virtual ~HttpListener();

  HttpListener(const HttpListener&) = delete;
  HttpListener& operator=(const HttpListener&) = delete;

  /// Binds + listens, probes/raises RLIMIT_NOFILE, and starts loop 0's
  /// thread. Throws mcmm::Error when the socket cannot be bound.
  void start();

  /// The bound port (resolves port 0 to the kernel-assigned one).
  [[nodiscard]] std::uint16_t port() const noexcept { return bound_port_; }

  /// Initiates graceful drain. Async-signal-safe: an atomic store plus one
  /// eventfd write per loop; all orderly teardown happens on the loop
  /// threads it wakes.
  void shutdown() noexcept;

  /// Waits until every loop thread exited.
  void join();

  /// start() + join() — the CLI entry point.
  void run();

  [[nodiscard]] bool draining() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }

  /// Event-loop observability counters (exported through /metrics).
  [[nodiscard]] const LoopCounters& loop_counters() const noexcept {
    return counters_;
  }

  /// Live connections this listener will hold before pausing accepts
  /// (derived from RLIMIT_NOFILE at start()).
  [[nodiscard]] std::size_t connection_ceiling() const noexcept {
    return max_connections_;
  }

  /// Loops whose threads have started: loop 0 at start(), each other loop
  /// with its first connection. `threads` caps it.
  [[nodiscard]] std::size_t loops_started() const noexcept {
    return loops_started_.load(std::memory_order_relaxed);
  }

  /// Connections each started loop owns now, by loop index.
  [[nodiscard]] std::vector<std::size_t> loop_connections() const;

 protected:
  /// One parsed request -> one response. `request_id` is the correlation
  /// id the listener will stamp on the wire (echo it upstream if the
  /// response is assembled from another hop). A by-reference response
  /// (Response::header_block) must view storage that outlives join().
  /// Handlers run on the loop thread that owns the connection and should
  /// return promptly: a handler that blocks stalls every connection of
  /// that loop — slow work belongs behind dispatch_async().
  virtual Response handle_request(const Request& req,
                                  const std::string& request_id) = 0;

  /// Asynchronous handler seam. Return true to take ownership of the
  /// request: the listener parks the connection and the handler MUST
  /// eventually call complete_async(token, response) — from any thread —
  /// to answer it. Return false (the default) to fall back to the
  /// synchronous handle_request() path. `req` and `request_id` are valid
  /// only during the call: copy what the answer needs.
  virtual bool dispatch_async(const Request& /*req*/,
                              const std::string& /*request_id*/,
                              ResponseToken /*token*/) {
    return false;
  }

  /// Completes a request accepted by dispatch_async(). Thread-safe; the
  /// write happens on the loop that owns the token's connection. Tokens
  /// are single-use.
  void complete_async(ResponseToken token, Response resp);

  /// Loop 0's readiness loop, for derived classes that multiplex their own
  /// sockets (the gateway's upstream legs). Only valid between start()
  /// and join().
  [[nodiscard]] EventLoop& loop() noexcept;

  /// Traffic hooks, called from the loop threads.
  virtual void on_connection() noexcept {}
  /// Brackets handle_request (begin before, end after the response hits
  /// the wire) — derived classes keep their in-flight gauges here.
  virtual void on_request_begin() noexcept {}
  virtual void on_request_end() noexcept {}
  /// One finished request: response status + handle_request latency.
  /// Also fires for parser rejections and timeouts (no begin/end pair).
  virtual void on_request_done(int /*status*/,
                               std::uint64_t /*micros*/) noexcept {}

  /// The drain flag, for handlers that report it (e.g. /healthz).
  [[nodiscard]] const std::atomic<bool>* drain_flag() const noexcept {
    return &stop_;
  }

 private:
  struct Connection;
  struct Loop;
  struct AcceptHandler;
  friend struct AcceptHandler;

  enum class WriteResult : std::uint8_t { Done, Pending, Closed };

  void loop_main(Loop& l);
  void start_thread(Loop& l);
  void accept_ready();
  void pause_accept() noexcept;
  void resume_accept() noexcept;
  /// The loop a new connection goes to (see the header comment).
  [[nodiscard]] Loop& place() noexcept;
  /// Creates and registers a connection on its owning loop's thread.
  void adopt(Loop& l, int fd);
  /// Forgets one placed connection: the owner's and the listener's counts.
  void release(Loop& l) noexcept;
  /// A readiness event for `c`, on its loop.
  void on_connection_event(Connection* c);
  /// Finishes a partly written response after EPOLLOUT.
  void resume_write(Connection* c);
  /// Reads and answers requests until the socket is drained (a short read
  /// or EAGAIN), the read budget is spent, or the connection is parked.
  void process_input(Connection* c);
  /// True to continue parsing buffered pipelined input; false when the
  /// connection was parked (write-pending, async) or closed.
  bool finish_request(Connection* c, const Request& req);
  /// Stages the header section in the connection's reused buffer and the
  /// body as a view (or the moved-in owned body) for one gather write.
  static void stage_response(Connection* c, Response&& resp, bool head,
                             bool keep_alive);
  /// Stages + writes a response; same return contract as
  /// after_write_done().
  bool start_response(Connection* c, Response&& resp);
  void start_error_response(Connection* c, Response&& resp);
  /// True when the connection survives (keep-alive) and parsing may
  /// continue; false when parked or closed.
  bool after_write_done(Connection* c);
  WriteResult flush_out(Connection* c) noexcept;
  /// Adds EPOLLOUT while the rest of a response waits for buffer space.
  void await_write(Connection* c) noexcept;
  void close_connection(Connection* c) noexcept;
  void conn_timer_fired(Connection* c);
  void finish_async(ResponseToken token, Response resp);
  void drain_sweep(Loop& l);

  ListenerConfig config_;
  LoopCounters counters_;
  std::vector<std::unique_ptr<Loop>> loops_;  // fixed at construction
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> loops_started_{0};
  std::atomic<std::size_t> loops_running_{0};
  std::atomic<std::uint64_t> next_epoch_{1};
  int listen_fd_{-1};
  std::uint16_t bound_port_{0};
  std::size_t max_connections_{0};
  bool accept_paused_{false};  // loop 0 only
  Timer accept_resume_timer_;  // on loop 0's wheel
  std::unique_ptr<AcceptHandler> accept_handler_;
  bool started_{false};
};

struct ServerConfig {
  std::string host{"127.0.0.1"};
  std::uint16_t port{8080};  ///< 0 picks an ephemeral port
  unsigned threads{0};       ///< event loops (threads); 0 = min(hw, 8)
  int backlog{1024};
  int request_timeout_ms{5000};  ///< mid-request read stall -> 408
  int idle_timeout_ms{5000};     ///< keep-alive with no next request -> close
  /// Overload shedding: reject with 503 + Retry-After once more than this
  /// many requests are being handled concurrently. 0 disables the cap.
  unsigned max_in_flight{0};
  /// Adopt an already-listening socket (see ListenerConfig::adopt_fd).
  int adopt_fd{-1};
  /// Print the probed fd limit / connection ceiling at startup.
  bool log_fd_limit{false};
  /// Run the perf-portability campaign (src/perfport) at construction and
  /// serve its Figure 2 at GET /v1/perf. Off by default: the campaign
  /// simulates every allowed route and adds seconds of startup time, which
  /// replica-heavy tests must not pay. Without it /v1/perf answers 404.
  bool enable_perf{false};
  /// Campaign knobs when enable_perf is set (defaults match the CI gate).
  perfport::CampaignConfig perf_config{};
  Limits limits{};
};

/// The knowledge-base server: the HttpListener loop dispatching into Api,
/// with Prometheus metrics and optional in-flight overload shedding.
class Server : public HttpListener {
 public:
  explicit Server(const CompatibilityMatrix& matrix, ServerConfig config = {});
  ~Server() override;

  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }
  /// Mutable access, e.g. for tests pinning the in-flight gauge to drive
  /// the overload-shedding path deterministically.
  [[nodiscard]] Metrics& metrics() noexcept { return metrics_; }

 protected:
  Response handle_request(const Request& req,
                          const std::string& request_id) override;
  void on_connection() noexcept override { metrics_.record_connection(); }
  void on_request_begin() noexcept override { metrics_.begin_request(); }
  void on_request_end() noexcept override { metrics_.end_request(); }
  void on_request_done(int status, std::uint64_t micros) noexcept override {
    metrics_.record_request(status, micros);
  }

 private:
  static ListenerConfig to_listener_config(const ServerConfig& config);

  unsigned max_in_flight_;
  Metrics metrics_;
  /// Built before api_ (declaration order matters: Api caches renders of
  /// the report during construction). Null when enable_perf is off.
  std::unique_ptr<perfport::PerfReport> perf_report_;
  Api api_;
};

}  // namespace mcmm::serve
