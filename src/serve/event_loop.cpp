#include "serve/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace mcmm::serve {
namespace {

/// The loop whose run() is executing on this thread, if any.
thread_local EventLoop* t_running = nullptr;

}  // namespace

LoopStats snapshot(const LoopCounters& c) noexcept {
  LoopStats s;
  s.open_connections = c.open_connections.load(std::memory_order_relaxed);
  s.wakeups_total = c.wakeups_total.load(std::memory_order_relaxed);
  s.accepts_total = c.accepts_total.load(std::memory_order_relaxed);
  s.dispatches_total = c.dispatches_total.load(std::memory_order_relaxed);
  s.epollout_rearms_total =
      c.epollout_rearms_total.load(std::memory_order_relaxed);
  s.timer_evictions_total =
      c.timer_evictions_total.load(std::memory_order_relaxed);
  return s;
}

// --- TimerWheel ----------------------------------------------------------

TimerWheel::TimerWheel() = default;

TimerWheel::~TimerWheel() = default;

void TimerWheel::link(std::size_t slot, Timer& t) {
  if (!slots_) {
    slots_ = std::make_unique<TimerLink[]>(kSlots);
    for (std::size_t i = 0; i < kSlots; ++i) {
      slots_[i].next = &slots_[i];
      slots_[i].prev = &slots_[i];
    }
  }
  TimerLink& head = slots_[slot];
  t.next = head.next;
  t.prev = &head;
  head.next->prev = &t;
  head.next = &t;
  ++armed_;
}

void TimerWheel::unlink(Timer& t) noexcept {
  t.prev->next = t.next;
  t.next->prev = t.prev;
  t.prev = nullptr;
  t.next = nullptr;
  --armed_;
}

void TimerWheel::arm(Timer& t, std::int64_t now_ms, std::int64_t delay_ms) {
  if (t.armed()) unlink(t);
  if (delay_ms < kTickMs) delay_ms = kTickMs;
  t.deadline_ms_ = now_ms + delay_ms;
  const std::size_t slot =
      static_cast<std::size_t>(t.deadline_ms_ / kTickMs) & (kSlots - 1);
  link(slot, t);
}

void TimerWheel::cancel(Timer& t) noexcept {
  if (t.armed()) unlink(t);
}

void TimerWheel::advance(std::int64_t now_ms) {
  if (armed_ == 0) {
    last_tick_ = now_ms / kTickMs;
    return;
  }
  const std::int64_t tick = now_ms / kTickMs;
  // Never sweep more than a full revolution: beyond that every slot has
  // been visited once and re-visiting finds only re-armed future timers.
  std::int64_t from = last_tick_ + 1;
  if (tick - from >= static_cast<std::int64_t>(kSlots)) {
    from = tick - static_cast<std::int64_t>(kSlots) + 1;
  }
  for (std::int64_t t = from; t <= tick; ++t) {
    TimerLink* head = &slots_[static_cast<std::size_t>(t) & (kSlots - 1)];
    // Collect expired entries first: on_fire may arm/cancel neighbours.
    Timer* expired = nullptr;
    for (TimerLink* link = head->next; link != head;) {
      TimerLink* next = link->next;
      auto* it = static_cast<Timer*>(link);
      // Tick granularity: a deadline inside the tick being visited fires
      // now (≤ one tick early) rather than waiting a full revolution.
      // Owners whose deadlines are lazy re-check and re-arm on fire.
      if (it->deadline_ms_ / kTickMs <= t) {
        unlink(*it);
        it->next = expired;  // reuse next as a singly-linked ready list
        expired = it;
      }
      link = next;
    }
    while (expired != nullptr) {
      Timer* it = expired;
      expired = static_cast<Timer*>(it->next);
      it->next = nullptr;
      if (it->on_fire) it->on_fire();
    }
  }
  last_tick_ = tick;
}

// --- EventLoop -----------------------------------------------------------

EventLoop::EventLoop(LoopCounters* counters) : counters_(counters) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = nullptr;  // nullptr marks the wake channel
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

std::int64_t EventLoop::steady_ms() noexcept {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void EventLoop::add(int fd, EpollHandler* handler,
                    std::uint32_t events) noexcept {
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = handler;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
}

void EventLoop::mod(int fd, EpollHandler* handler,
                    std::uint32_t events) noexcept {
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = handler;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void EventLoop::del(int fd) noexcept {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

void EventLoop::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(ops_mu_);
    ops_.push_back(std::move(fn));
  }
  if (t_running == this) {
    self_posted_ = true;  // drained later in this iteration; no wake
    return;
  }
  wake();
}

void EventLoop::wake() noexcept {
  const std::uint64_t one = 1;
  // write(2) on an eventfd is async-signal-safe; EAGAIN (counter already
  // saturated) still leaves the loop woken.
  [[maybe_unused]] const ssize_t n =
      ::write(wake_fd_, &one, sizeof one);
}

void EventLoop::drain_ops() {
  self_posted_ = false;
  std::vector<std::function<void()>> batch;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(ops_mu_);
      if (ops_.empty()) return;
      batch.swap(ops_);
    }
    for (std::function<void()>& fn : batch) fn();
    batch.clear();
  }
}

void EventLoop::run(const std::function<bool()>& should_exit) {
  constexpr int kMaxEvents = 256;
  epoll_event events[kMaxEvents];
  EventLoop* const outer = t_running;
  t_running = this;
  now_ms_ = steady_ms();
  for (;;) {
    int timeout = wheel_.armed_count() > 0 ? TimerWheel::kTickMs : -1;
    // An op queued from this thread after the last drain (should_exit's
    // own posts) must not wait for an unrelated event.
    if (self_posted_) timeout = 0;
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout);
    counters_->wakeups_total.fetch_add(1, std::memory_order_relaxed);
    now_ms_ = steady_ms();
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < std::max(n, 0); ++i) {
      auto* handler = static_cast<EpollHandler*>(events[i].data.ptr);
      if (handler == nullptr) {
        std::uint64_t drained = 0;
        while (::read(wake_fd_, &drained, sizeof drained) > 0) {
        }
        continue;
      }
      handler->on_io(events[i].events);
    }
    drain_ops();
    wheel_.advance(now_ms_);
    drain_ops();  // timer callbacks may have posted follow-ups
    if (should_exit()) break;
  }
  t_running = outer;
}

}  // namespace mcmm::serve
