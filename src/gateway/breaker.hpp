#pragma once
// Failure-isolation primitives for the mcmm gateway (DESIGN.md §3.3):
// a per-replica circuit breaker and a global retry budget. Both are pure
// state machines — time is injected as a steady-clock millisecond count —
// so tests/gateway/test_breaker.cpp drives every transition without
// sleeping or touching a socket.

#include <atomic>
#include <cstdint>
#include <mutex>

namespace mcmm::gateway {

/// Milliseconds on the steady clock (the time base every gateway state
/// machine uses; wall-clock jumps must not open or close breakers).
[[nodiscard]] std::int64_t steady_now_ms() noexcept;

struct BreakerConfig {
  int failure_threshold{5};   ///< consecutive transport failures -> Open
  int open_cooldown_ms{1000};  ///< Open -> HalfOpen after this long
};

/// Classic closed -> open -> half-open -> closed breaker over transport
/// failures to one replica. Open fails fast (no connect attempt is
/// made); after the cooldown exactly one trial request is admitted —
/// its outcome closes or re-opens the breaker. Thread-safe; the critical
/// sections are a few loads/stores under an uncontended mutex.
class CircuitBreaker {
 public:
  enum class State : std::uint8_t { Closed, Open, HalfOpen };

  explicit CircuitBreaker(BreakerConfig config = {}) : config_(config) {}

  /// The effective state at `now_ms` (an elapsed cooldown reads HalfOpen).
  [[nodiscard]] State state(std::int64_t now_ms) const;

  /// True when a request may be sent. In HalfOpen this *claims* the single
  /// trial slot — the caller must route the request and report the outcome
  /// via record_success/record_failure/record_abandoned.
  [[nodiscard]] bool allow(std::int64_t now_ms);

  void record_success(std::int64_t now_ms);
  void record_failure(std::int64_t now_ms);
  /// The request was started but never resolved against this replica
  /// (e.g. a hedge won elsewhere): releases a claimed trial slot.
  void record_abandoned();

 private:
  BreakerConfig config_;
  mutable std::mutex mu_;
  State state_{State::Closed};
  int consecutive_failures_{0};
  std::int64_t opened_at_ms_{0};
  bool trial_in_flight_{false};
};

struct RetryBudgetConfig {
  /// Retry tokens earned per proxied request: a sustained retry rate above
  /// this fraction of traffic is rejected instead of amplifying an outage.
  double ratio{0.1};
  /// Startup / burst allowance (whole tokens, also the bucket cap).
  std::uint32_t burst{10};
};

/// Global token bucket bounding retries + hedges across all replicas
/// (the Finagle "retry budget" shape). Lock-free: a CAS loop over a
/// milli-token counter.
class RetryBudget {
 public:
  explicit RetryBudget(RetryBudgetConfig config = {});

  /// Deposit for one incoming proxied request.
  void on_request() noexcept;
  /// Withdraw one token for a retry or hedge; false when the budget is
  /// exhausted (the caller must fail over to the already-received answer
  /// or an error, not keep hammering the fleet).
  [[nodiscard]] bool try_withdraw() noexcept;
  /// Whole tokens currently available (for metrics and tests).
  [[nodiscard]] std::uint64_t balance() const noexcept;

 private:
  RetryBudgetConfig config_;
  std::int64_t cap_milli_;
  std::atomic<std::int64_t> milli_tokens_;
};

}  // namespace mcmm::gateway
