#pragma once
// The event-driven upstream side of the mcmm gateway. One ProxyTask is the
// state machine for one proxied client request: it lives entirely on the
// gateway's loop 0 (DESIGN.md §3.3), so an upstream round-trip — connect,
// send, await, retry, hedge — never parks a thread. The client connection
// is held via the HttpListener async seam (ResponseToken) and answered with
// complete_async() when one upstream leg wins.
//
// Threading contract: every ProxyTask/ProxyLeg method runs on loop 0's
// thread. Gateway::dispatch_async (on the client connection's loop) only
// allocates the task and posts start(); from then on loop 0 owns it, and
// complete_async() carries the answer back to the client's loop. The task
// deletes itself through a posted op after finish() (deferred one drain
// cycle so stale events from the same epoll batch cannot touch a freed
// leg).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gateway/upstream.hpp"
#include "serve/event_loop.hpp"
#include "serve/server.hpp"

namespace mcmm::gateway {

class Gateway;
class ProxyTask;

/// One upstream socket of an in-flight proxied request. At most two are
/// live per task: the primary attempt (slot 0) and a latency hedge
/// (slot 1). Registered directly on the gateway's event loop.
struct ProxyLeg final : serve::EpollHandler {
  enum class Phase : std::uint8_t {
    Idle,        ///< no socket; slot unused
    Waiting,     ///< queued for a per-replica connection slot
    Connecting,  ///< non-blocking connect pending EPOLLOUT
    Sending,     ///< writing the request wire
    Receiving,   ///< reading/parsing the response
  };

  ProxyTask* task{nullptr};
  std::size_t slot{0};  ///< 0 = primary, 1 = hedge
  Phase phase{Phase::Idle};
  int fd{-1};
  std::size_t idx{0};  ///< replica index
  std::size_t sent{0};
  bool from_pool{false};
  bool replayed{false};
  bool no_replay{false};  ///< deadline/garble: never replay on a fresh dial
  bool counted{false};    ///< replica in_flight gauge incremented
  std::int64_t start_ms{0};
  ResponseParser parser;
  serve::Timer connect_timer;

  void on_io(std::uint32_t events) override;
  [[nodiscard]] bool active() const noexcept { return phase != Phase::Idle; }
};

/// Drives one proxied request to completion: replica selection, pooled or
/// fresh non-blocking connects, retries of idempotent requests on other
/// replicas, latency hedging, per-attempt deadlines — all of it timer- and
/// readiness-driven. Mirrors the retry/hedge/breaker semantics of the old
/// blocking run_exchange() path.
class ProxyTask {
 public:
  ProxyTask(Gateway& gw, serve::ResponseToken token, std::string wire,
            bool head, bool idempotent, bool hedgeable);

  ProxyTask(const ProxyTask&) = delete;
  ProxyTask& operator=(const ProxyTask&) = delete;

  /// First loop-thread entry; begins attempt 0.
  void start();

 private:
  friend struct ProxyLeg;
  friend class Gateway;  // resume_leg() from the waiter queue

  void begin_attempt();
  /// Leases a pooled connection or dials; may park the leg in the
  /// replica's waiter queue when its connection cap is reached.
  void open_leg(ProxyLeg& leg, std::size_t replica);
  /// The dial/lease half of open_leg, also re-entered on pooled replay
  /// and when a waiter is resumed.
  void lease_or_dial(ProxyLeg& leg);
  void leg_io(ProxyLeg& leg, std::uint32_t events);
  void leg_send(ProxyLeg& leg);
  void leg_recv(ProxyLeg& leg);
  void leg_won(ProxyLeg& leg);
  /// Transport failure: pooled legs that died before a byte replay once on
  /// a fresh dial with no breaker penalty; real failures penalise the
  /// breaker, join `excluded_`, and trigger the next attempt once no leg
  /// is left active.
  void leg_failed(ProxyLeg& leg);
  void abandon_leg(ProxyLeg& leg);
  /// Immediate dial failure: breaker penalty + exclusion, then the next
  /// attempt if no other leg is live.
  void leg_unopenable(ProxyLeg& leg);
  /// Re-entry for a leg popped off a replica's waiter queue.
  void resume_leg(ProxyLeg& leg);
  /// Closes the socket and returns the replica's connection slot.
  void drop_socket(ProxyLeg& leg);
  void unqueue(ProxyLeg& leg);
  void exclude(std::size_t replica);
  void next_attempt();
  void on_deadline();
  void on_hedge();
  /// No attempt left: best stored answer, 503 (never reached a replica),
  /// or 502.
  void settle();
  void finish(serve::Response resp);

  Gateway& gw_;
  serve::ResponseToken token_;
  std::string wire_;
  bool head_;
  bool idempotent_;
  bool hedgeable_;
  int attempt_{0};
  bool attempted_{false};
  bool finished_{false};
  /// True while a deadline tears both legs down, deferring next_attempt()
  /// until every leg has been failed.
  bool teardown_{false};
  std::vector<std::size_t> excluded_;
  std::optional<serve::Response> last_overload_;
  ProxyLeg legs_[2];
  serve::Timer deadline_timer_;
  serve::Timer hedge_timer_;
};

}  // namespace mcmm::gateway
