#include "serve/metrics.hpp"

#include <cstdio>

namespace mcmm::serve {

void Metrics::record_request(int status, std::uint64_t micros) noexcept {
  std::size_t slot = kStatusCodes.size();  // "other"
  for (std::size_t i = 0; i < kStatusCodes.size(); ++i) {
    if (kStatusCodes[i] == status) {
      slot = i;
      break;
    }
  }
  by_status_[slot].fetch_add(1, std::memory_order_relaxed);

  std::size_t bucket = kBucketMicros.size();  // +Inf
  for (std::size_t i = 0; i < kBucketMicros.size(); ++i) {
    if (micros <= kBucketMicros[i]) {
      bucket = i;
      break;
    }
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  latency_sum_micros_.fetch_add(micros, std::memory_order_relaxed);
  latency_count_.fetch_add(1, std::memory_order_relaxed);
}

void Metrics::record_endpoint(std::string_view path) noexcept {
  if (path == "/v1") path = "/";  // the index is served at both
  if (path.rfind("/v1/cell/", 0) == 0) path = "/v1/cell";
  std::size_t slot = kEndpoints.size();  // "other"
  for (std::size_t i = 0; i < kEndpoints.size(); ++i) {
    if (kEndpoints[i] == path) {
      slot = i;
      break;
    }
  }
  by_endpoint_[slot].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Metrics::requests_total() const noexcept {
  std::uint64_t total = 0;
  for (const auto& counter : by_status_) {
    total += counter.load(std::memory_order_relaxed);
  }
  return total;
}

std::string Metrics::prometheus_text() const {
  std::string out;
  out.reserve(2048);

  out +=
      "# HELP mcmm_http_requests_total Requests served, by response status.\n"
      "# TYPE mcmm_http_requests_total counter\n";
  for (std::size_t i = 0; i < kStatusCodes.size(); ++i) {
    const std::uint64_t n = by_status_[i].load(std::memory_order_relaxed);
    if (n == 0) continue;
    out += "mcmm_http_requests_total{code=\"";
    out += std::to_string(kStatusCodes[i]);
    out += "\"} ";
    out += std::to_string(n);
    out += '\n';
  }
  const std::uint64_t other =
      by_status_[kStatusCodes.size()].load(std::memory_order_relaxed);
  if (other != 0) {
    out += "mcmm_http_requests_total{code=\"other\"} ";
    out += std::to_string(other);
    out += '\n';
  }

  out +=
      "# HELP mcmm_http_requests_by_endpoint_total Requests routed, by "
      "endpoint family.\n"
      "# TYPE mcmm_http_requests_by_endpoint_total counter\n";
  for (std::size_t i = 0; i < kEndpoints.size(); ++i) {
    const std::uint64_t n = by_endpoint_[i].load(std::memory_order_relaxed);
    if (n == 0) continue;
    out += "mcmm_http_requests_by_endpoint_total{endpoint=\"";
    out += kEndpoints[i];
    out += "\"} ";
    out += std::to_string(n);
    out += '\n';
  }
  const std::uint64_t other_endpoint =
      by_endpoint_[kEndpoints.size()].load(std::memory_order_relaxed);
  if (other_endpoint != 0) {
    out += "mcmm_http_requests_by_endpoint_total{endpoint=\"other\"} ";
    out += std::to_string(other_endpoint);
    out += '\n';
  }

  out +=
      "# HELP mcmm_http_connections_total Accepted TCP connections.\n"
      "# TYPE mcmm_http_connections_total counter\n"
      "mcmm_http_connections_total ";
  out += std::to_string(connections_.load(std::memory_order_relaxed));
  out += '\n';

  out +=
      "# HELP mcmm_http_in_flight_requests Requests currently being "
      "handled.\n"
      "# TYPE mcmm_http_in_flight_requests gauge\n"
      "mcmm_http_in_flight_requests ";
  out += std::to_string(in_flight_.load(std::memory_order_relaxed));
  out += '\n';

  out +=
      "# HELP mcmm_http_request_duration_seconds Request handling latency.\n"
      "# TYPE mcmm_http_request_duration_seconds histogram\n";
  std::uint64_t cumulative = 0;
  char label[32];
  for (std::size_t i = 0; i < kBucketMicros.size(); ++i) {
    cumulative += buckets_[i].load(std::memory_order_relaxed);
    std::snprintf(label, sizeof label, "%g",
                  static_cast<double>(kBucketMicros[i]) / 1e6);
    out += "mcmm_http_request_duration_seconds_bucket{le=\"";
    out += label;
    out += "\"} ";
    out += std::to_string(cumulative);
    out += '\n';
  }
  cumulative += buckets_[kBucketMicros.size()].load(std::memory_order_relaxed);
  out += "mcmm_http_request_duration_seconds_bucket{le=\"+Inf\"} ";
  out += std::to_string(cumulative);
  out += '\n';
  const auto sum_micros = latency_sum_micros_.load(std::memory_order_relaxed);
  std::snprintf(label, sizeof label, "%.6f",
                static_cast<double>(sum_micros) / 1e6);
  out += "mcmm_http_request_duration_seconds_sum ";
  out += label;
  out += '\n';
  out += "mcmm_http_request_duration_seconds_count ";
  out += std::to_string(latency_count_.load(std::memory_order_relaxed));
  out += '\n';

  if (loop_ != nullptr) {
    const LoopStats ls = snapshot(*loop_);
    out +=
        "# HELP mcmm_eventloop_open_connections Sockets currently held by "
        "the readiness loop.\n"
        "# TYPE mcmm_eventloop_open_connections gauge\n"
        "mcmm_eventloop_open_connections ";
    out += std::to_string(ls.open_connections);
    out +=
        "\n# HELP mcmm_eventloop_wakeups_total epoll_wait returns.\n"
        "# TYPE mcmm_eventloop_wakeups_total counter\n"
        "mcmm_eventloop_wakeups_total ";
    out += std::to_string(ls.wakeups_total);
    out +=
        "\n# HELP mcmm_eventloop_accepts_total Connections accepted by the "
        "loop.\n"
        "# TYPE mcmm_eventloop_accepts_total counter\n"
        "mcmm_eventloop_accepts_total ";
    out += std::to_string(ls.accepts_total);
    out +=
        "\n# HELP mcmm_eventloop_dispatches_total Connection readiness "
        "events run by their loop.\n"
        "# TYPE mcmm_eventloop_dispatches_total counter\n"
        "mcmm_eventloop_dispatches_total ";
    out += std::to_string(ls.dispatches_total);
    out +=
        "\n# HELP mcmm_eventloop_epollout_rearms_total Partial writes that "
        "re-armed for EPOLLOUT.\n"
        "# TYPE mcmm_eventloop_epollout_rearms_total counter\n"
        "mcmm_eventloop_epollout_rearms_total ";
    out += std::to_string(ls.epollout_rearms_total);
    out +=
        "\n# HELP mcmm_eventloop_timer_evictions_total Connections evicted "
        "by the timer wheel.\n"
        "# TYPE mcmm_eventloop_timer_evictions_total counter\n"
        "mcmm_eventloop_timer_evictions_total ";
    out += std::to_string(ls.timer_evictions_total);
    out += '\n';
  }
  return out;
}

}  // namespace mcmm::serve
