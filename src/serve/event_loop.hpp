#pragma once
// The readiness core of the serving layer (DESIGN.md §3.2): one epoll(7)
// instance, an eventfd wake channel, a cross-thread operation queue, and a
// hashed timer wheel, packaged so HttpListener (and, through it, the
// gateway's upstream legs) can multiplex thousands of sockets on one loop
// thread. A listener runs several of these, one per loop thread, each
// owning its connections for life.
//
// Threading contract:
//   - run() executes on exactly one thread ("the loop thread"). Handlers,
//     timers, and posted operations all fire there; anything they touch
//     without synchronisation is loop-thread-local by construction.
//   - add()/mod()/del() wrap epoll_ctl(2), which is thread-safe, so the
//     accepting loop may register a socket another loop will own.
//   - post() and wake() are safe from any thread; wake() is additionally
//     async-signal-safe (a single write(2) on the eventfd), which is what
//     lets a SIGTERM handler nudge the loop. A post() from the loop's own
//     thread inside run() queues without the eventfd write: drain_ops runs
//     after IO and after timers in the same iteration anyway.
//
// The timer wheel is intrusive: a Timer is embedded in its owner and links
// itself into a slot's doubly-linked list, so arm/cancel are O(1) with no
// allocation, and destroying the owner after cancel() leaves no dangling
// reference behind.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace mcmm::serve {

/// Event-loop observability counters, exported through /metrics. Relaxed
/// atomics: the scrape needs eventual consistency only.
struct LoopCounters {
  std::atomic<std::uint64_t> open_connections{0};   ///< live sockets (gauge)
  std::atomic<std::uint64_t> wakeups_total{0};      ///< epoll_wait returns
  std::atomic<std::uint64_t> accepts_total{0};      ///< accept4 successes
  std::atomic<std::uint64_t> dispatches_total{0};   ///< connection events run
  std::atomic<std::uint64_t> epollout_rearms_total{0};  ///< partial writes
  std::atomic<std::uint64_t> timer_evictions_total{0};  ///< wheel-expired conns
};

/// Plain snapshot of LoopCounters for metrics rendering.
struct LoopStats {
  std::uint64_t open_connections{0};
  std::uint64_t wakeups_total{0};
  std::uint64_t accepts_total{0};
  std::uint64_t dispatches_total{0};
  std::uint64_t epollout_rearms_total{0};
  std::uint64_t timer_evictions_total{0};
};

[[nodiscard]] LoopStats snapshot(const LoopCounters& c) noexcept;

/// Receives readiness events for one registered fd.
class EpollHandler {
 public:
  virtual void on_io(std::uint32_t events) = 0;

 protected:
  ~EpollHandler() = default;
};

class TimerWheel;

/// A link of a circular doubly-linked list: the base of every Timer and
/// the whole of a wheel slot's head.
struct TimerLink {
  TimerLink* prev{nullptr};
  TimerLink* next{nullptr};
};

/// Intrusive timer-wheel node. Embed one per deadline; arm via
/// TimerWheel::arm(). `on_fire` fires on the loop thread. An armed timer
/// MUST be cancelled before its owner is destroyed.
class Timer : private TimerLink {
 public:
  Timer() = default;
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  [[nodiscard]] bool armed() const noexcept { return prev != nullptr; }

  std::function<void()> on_fire;  ///< set once by the owner before arming

 private:
  friend class TimerWheel;
  std::int64_t deadline_ms_{0};
};

/// Hashed wheel of intrusive timers: kSlots buckets of kTickMs each. A
/// deadline beyond the horizon simply re-enters the wheel when its slot
/// comes around (the fire check compares against the real deadline), so
/// arbitrary delays are handled without a rounds counter on the hot path.
/// The slot heads (16 KiB) are allocated at the first arm, so a loop that
/// never holds a timer holds no wheel.
class TimerWheel {
 public:
  static constexpr int kTickMs = 10;
  static constexpr std::size_t kSlots = 1024;  // power of two; ~10s horizon

  TimerWheel();
  ~TimerWheel();

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  /// (Re-)arms `t` to fire at now_ms + delay_ms (min one tick). Loop
  /// thread only.
  void arm(Timer& t, std::int64_t now_ms, std::int64_t delay_ms);
  /// Unlinks `t` if armed; idempotent. Loop thread only.
  void cancel(Timer& t) noexcept;
  /// Fires every timer whose deadline has passed. Loop thread only.
  void advance(std::int64_t now_ms);

  [[nodiscard]] std::size_t armed_count() const noexcept { return armed_; }

 private:
  void unlink(Timer& t) noexcept;
  void link(std::size_t slot, Timer& t);

  std::unique_ptr<TimerLink[]> slots_;  // circular list heads, never empty
  std::int64_t last_tick_{0};
  std::size_t armed_{0};
};

/// The epoll loop. One instance per listener; run() is the loop thread.
class EventLoop {
 public:
  explicit EventLoop(LoopCounters* counters);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // epoll_ctl wrappers; safe from any thread. `events` is the EPOLL* mask.
  void add(int fd, EpollHandler* handler, std::uint32_t events) noexcept;
  void mod(int fd, EpollHandler* handler, std::uint32_t events) noexcept;
  void del(int fd) noexcept;

  /// Enqueues `fn` to run on the loop thread and wakes it. Any thread; on
  /// the loop's own thread inside run() it skips the wake (the op runs in
  /// this iteration's drain).
  void post(std::function<void()> fn);
  /// Wakes the loop without queueing work. Async-signal-safe.
  void wake() noexcept;

  /// Runs until `should_exit()` returns true (checked once per iteration,
  /// after IO, posted ops, and timers have been processed).
  void run(const std::function<bool()>& should_exit);

  /// Monotonic milliseconds, cached once per loop iteration.
  [[nodiscard]] std::int64_t now_ms() const noexcept { return now_ms_; }
  /// Fresh monotonic milliseconds (any thread).
  [[nodiscard]] static std::int64_t steady_ms() noexcept;

  [[nodiscard]] TimerWheel& wheel() noexcept { return wheel_; }
  [[nodiscard]] LoopCounters& counters() noexcept { return *counters_; }

 private:
  void drain_ops();

  int epoll_fd_{-1};
  int wake_fd_{-1};
  LoopCounters* counters_;
  TimerWheel wheel_;
  std::int64_t now_ms_{0};

  std::mutex ops_mu_;
  std::vector<std::function<void()>> ops_;
  bool self_posted_{false};  // loop thread only: an op queued without wake
};

}  // namespace mcmm::serve
