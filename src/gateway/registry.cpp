#include "gateway/registry.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>

namespace mcmm::gateway {
namespace {

/// Extracts the integer after `"key":` in a tiny flat JSON object.
/// Returns false when the key is missing or malformed. Good enough for
/// the /healthz bodies serve emits; not a JSON parser.
bool json_int_field(const std::string& body, const char* key, long* out) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) return false;
  const char* p = body.c_str() + at + needle.size();
  char* end = nullptr;
  const long value = std::strtol(p, &end, 10);
  if (end == p) return false;
  *out = value;
  return true;
}

}  // namespace

const char* to_string(ReplicaHealth health) noexcept {
  switch (health) {
    case ReplicaHealth::Healthy:
      return "healthy";
    case ReplicaHealth::Ejected:
      return "ejected";
    case ReplicaHealth::HalfOpen:
      return "half-open";
    case ReplicaHealth::Starting:
      return "starting";
  }
  return "unknown";
}

ReplicaRegistry::ReplicaRegistry(std::vector<ReplicaEndpoint> endpoints,
                                 RegistryConfig config)
    : config_(config) {
  replicas_.reserve(endpoints.size());
  for (ReplicaEndpoint& ep : endpoints) {
    replicas_.push_back(
        std::make_unique<Replica>(std::move(ep), config_.breaker));
  }
}

ReplicaRegistry::~ReplicaRegistry() { stop_probing(); }

void ReplicaRegistry::record_probe(std::size_t i, bool success,
                                   std::uint64_t reported_in_flight,
                                   long pid) {
  Replica& r = at(i);
  if (success) {
    r.probe_failures = 0;
    r.reported_in_flight.store(reported_in_flight,
                               std::memory_order_relaxed);
    r.pid.store(pid, std::memory_order_relaxed);
    switch (r.health.load(std::memory_order_relaxed)) {
      case ReplicaHealth::Healthy:
        break;
      case ReplicaHealth::Starting:
        r.health.store(ReplicaHealth::Healthy, std::memory_order_relaxed);
        break;
      case ReplicaHealth::Ejected:
        // First sign of life: probation, not full traffic.
        r.probe_successes = 1;
        r.health.store(config_.readmit_after <= 1 ? ReplicaHealth::Healthy
                                                  : ReplicaHealth::HalfOpen,
                       std::memory_order_relaxed);
        break;
      case ReplicaHealth::HalfOpen:
        if (++r.probe_successes >= config_.readmit_after) {
          r.health.store(ReplicaHealth::Healthy, std::memory_order_relaxed);
        }
        break;
    }
    return;
  }
  r.probe_successes = 0;
  switch (r.health.load(std::memory_order_relaxed)) {
    case ReplicaHealth::Healthy:
      if (++r.probe_failures >= config_.eject_after) {
        r.health.store(ReplicaHealth::Ejected, std::memory_order_relaxed);
        ejections_total_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    case ReplicaHealth::HalfOpen:
      // Relapsed during probation: straight back out.
      r.health.store(ReplicaHealth::Ejected, std::memory_order_relaxed);
      ejections_total_.fetch_add(1, std::memory_order_relaxed);
      r.probe_failures = config_.eject_after;
      break;
    case ReplicaHealth::Starting:
    case ReplicaHealth::Ejected:
      break;
  }
}

void ReplicaRegistry::eligible(std::vector<std::size_t>& out) const {
  out.clear();
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (replicas_[i]->health.load(std::memory_order_relaxed) ==
        ReplicaHealth::Healthy) {
      out.push_back(i);
    }
  }
}

std::size_t ReplicaRegistry::healthy_count() const noexcept {
  std::size_t n = 0;
  for (const auto& r : replicas_) {
    if (r->health.load(std::memory_order_relaxed) ==
        ReplicaHealth::Healthy) {
      ++n;
    }
  }
  return n;
}

void ReplicaRegistry::start_probing() {
  {
    std::lock_guard<std::mutex> lock(probe_mu_);
    probe_stop_ = false;
  }
  prober_ = std::thread([this] { probe_loop(); });
}

void ReplicaRegistry::stop_probing() {
  {
    std::lock_guard<std::mutex> lock(probe_mu_);
    probe_stop_ = true;
  }
  probe_cv_.notify_all();
  if (prober_.joinable()) prober_.join();
}

void ReplicaRegistry::probe_loop() {
  for (;;) {
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      std::uint64_t reported = 0;
      long pid = -1;
      const bool ok = probe_once(i, &reported, &pid);
      record_probe(i, ok, reported, pid);
    }
    std::unique_lock<std::mutex> lock(probe_mu_);
    probe_cv_.wait_for(lock,
                       std::chrono::milliseconds(config_.probe_interval_ms),
                       [this] { return probe_stop_; });
    if (probe_stop_) return;
  }
}

bool ReplicaRegistry::probe_once(std::size_t i, std::uint64_t* reported,
                                 long* pid) {
  const Replica& r = at(i);
  const int fd = connect_with_timeout(r.endpoint.host, r.endpoint.port,
                                      config_.probe_timeout_ms);
  if (fd < 0) return false;
  const std::string request =
      "GET /healthz HTTP/1.1\r\nHost: " + r.endpoint.host +
      "\r\nConnection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }

  ResponseParser parser;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(config_.probe_timeout_ms);
  char buf[4096];
  while (parser.status() == ResponseParser::Status::NeedMore) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) {
      ::close(fd);
      return false;
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int pr = ::poll(&pfd, 1, static_cast<int>(left));
    if (pr < 0 && errno == EINTR) continue;
    if (pr <= 0) {
      ::close(fd);
      return false;
    }
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF: let the parser state decide
    parser.feed(std::string_view(buf, static_cast<std::size_t>(n)));
  }
  ::close(fd);
  if (parser.status() != ResponseParser::Status::Complete ||
      parser.status_code() != 200) {
    return false;
  }
  const std::string body = parser.take_body();
  long in_flight = 0;
  if (json_int_field(body, "in_flight", &in_flight) && in_flight >= 0) {
    *reported = static_cast<std::uint64_t>(in_flight);
  }
  long reported_pid = -1;
  if (json_int_field(body, "pid", &reported_pid)) *pid = reported_pid;
  return true;
}

}  // namespace mcmm::gateway
