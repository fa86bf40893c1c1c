#pragma once
// The gateway's view of the replica fleet: per-replica health + load state
// plus a background prober that GETs each replica's /healthz. Health
// transitions (eject after N consecutive probe failures, readmit through a
// half-open probation after M successes) are pure functions of probe
// outcomes — record_probe() — so tests drive the state machine without a
// prober thread or sockets.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gateway/breaker.hpp"
#include "gateway/upstream.hpp"

namespace mcmm::gateway {

struct ReplicaEndpoint {
  std::string host{"127.0.0.1"};
  std::uint16_t port{0};
};

/// Starting: not yet answered a probe, so not eligible for picks (a replica
/// may still be building its caches); its first successful probe admits
/// it, and failures before that neither eject it nor count.
enum class ReplicaHealth : std::uint8_t {
  Starting,
  Healthy,
  Ejected,
  HalfOpen
};

[[nodiscard]] const char* to_string(ReplicaHealth health) noexcept;

/// One upstream replica. The hot-path fields (in-flight counts, health)
/// are atomics read by the balancer on every pick; probe bookkeeping is
/// only touched by the prober thread.
struct Replica {
  explicit Replica(ReplicaEndpoint ep, BreakerConfig breaker_config)
      : endpoint(std::move(ep)), breaker(breaker_config) {}

  ReplicaEndpoint endpoint;
  CircuitBreaker breaker;
  ConnectionPool pool;

  /// Requests this gateway currently has outstanding against the replica.
  std::atomic<std::uint64_t> in_flight{0};
  /// The replica's own in-flight gauge from its last /healthz response
  /// (captures load from other clients / other gateways).
  std::atomic<std::uint64_t> reported_in_flight{0};
  /// The replica's pid from /healthz (-1 until first successful probe).
  /// Fault injection (loadgen --fault) targets this.
  std::atomic<long> pid{-1};
  std::atomic<ReplicaHealth> health{ReplicaHealth::Starting};

  // Prober-thread-only state (no concurrent access).
  int probe_failures{0};
  int probe_successes{0};

  /// The balancing signal: local view + replica-reported load.
  [[nodiscard]] std::uint64_t load() const noexcept {
    return in_flight.load(std::memory_order_relaxed) +
           reported_in_flight.load(std::memory_order_relaxed);
  }
};

struct RegistryConfig {
  int probe_interval_ms{200};
  int probe_timeout_ms{500};
  /// Consecutive probe failures before a Healthy replica is ejected.
  int eject_after{3};
  /// Consecutive probe successes a HalfOpen replica needs to be readmitted.
  int readmit_after{2};
  BreakerConfig breaker{};
};

/// Fixed-membership registry (replica set is decided at startup; health is
/// dynamic). Owns the prober thread.
class ReplicaRegistry {
 public:
  ReplicaRegistry(std::vector<ReplicaEndpoint> endpoints,
                  RegistryConfig config = {});
  ~ReplicaRegistry();

  ReplicaRegistry(const ReplicaRegistry&) = delete;
  ReplicaRegistry& operator=(const ReplicaRegistry&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return replicas_.size(); }
  [[nodiscard]] Replica& at(std::size_t i) noexcept { return *replicas_[i]; }
  [[nodiscard]] const Replica& at(std::size_t i) const noexcept {
    return *replicas_[i];
  }

  /// Applies one probe outcome to replica `i`:
  ///   Starting --first success-->                     Healthy
  ///   Healthy  --eject_after consecutive failures-->  Ejected
  ///   Ejected  --any success-->                       HalfOpen
  ///   HalfOpen --readmit_after consecutive successes--> Healthy
  ///   HalfOpen --any failure-->                       Ejected
  /// On success also refreshes reported_in_flight and pid.
  void record_probe(std::size_t i, bool success,
                    std::uint64_t reported_in_flight, long pid);

  /// Indices of Healthy replicas (the balancer's candidate set).
  void eligible(std::vector<std::size_t>& out) const;
  [[nodiscard]] std::size_t healthy_count() const noexcept;
  [[nodiscard]] std::uint64_t ejections_total() const noexcept {
    return ejections_total_.load(std::memory_order_relaxed);
  }

  void start_probing();
  void stop_probing();

  [[nodiscard]] const RegistryConfig& config() const noexcept {
    return config_;
  }

 private:
  void probe_loop();
  /// One HTTP GET /healthz against replica `i`; fills the outputs on
  /// success. A non-200 answer (e.g. 503 while draining) is a failure.
  bool probe_once(std::size_t i, std::uint64_t* reported, long* pid);

  RegistryConfig config_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::atomic<std::uint64_t> ejections_total_{0};

  std::mutex probe_mu_;
  std::condition_variable probe_cv_;
  bool probe_stop_{false};
  std::thread prober_;
};

}  // namespace mcmm::gateway
