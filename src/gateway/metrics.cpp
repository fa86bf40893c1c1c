#include "gateway/metrics.hpp"

#include <cstdio>

#include "gateway/registry.hpp"

namespace mcmm::gateway {

void UpstreamStats::record(bool success, std::uint64_t micros) noexcept {
  (success ? ok : error).fetch_add(1, std::memory_order_relaxed);
  std::size_t bucket = kBucketMicros.size();  // +Inf
  for (std::size_t i = 0; i < kBucketMicros.size(); ++i) {
    if (micros <= kBucketMicros[i]) {
      bucket = i;
      break;
    }
  }
  buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  latency_sum_micros.fetch_add(micros, std::memory_order_relaxed);
}

GatewayMetrics::GatewayMetrics(std::size_t upstream_count) {
  upstreams_.reserve(upstream_count);
  for (std::size_t i = 0; i < upstream_count; ++i) {
    upstreams_.push_back(std::make_unique<UpstreamStats>());
  }
}

std::string GatewayMetrics::prometheus_text(
    const ReplicaRegistry& registry) const {
  std::string out = client.prometheus_text();
  out.reserve(out.size() + 4096);

  auto upstream_label = [&registry](std::size_t i) {
    const Replica& r = registry.at(i);
    return r.endpoint.host + ":" + std::to_string(r.endpoint.port);
  };

  out +=
      "# HELP mcmm_gateway_upstream_requests_total Proxied exchanges per "
      "upstream, by result.\n"
      "# TYPE mcmm_gateway_upstream_requests_total counter\n";
  for (std::size_t i = 0; i < upstreams_.size(); ++i) {
    const UpstreamStats& s = *upstreams_[i];
    const std::uint64_t ok = s.ok.load(std::memory_order_relaxed);
    const std::uint64_t err = s.error.load(std::memory_order_relaxed);
    if (ok != 0) {
      out += "mcmm_gateway_upstream_requests_total{upstream=\"" +
             upstream_label(i) + "\",result=\"ok\"} ";
      out += std::to_string(ok);
      out += '\n';
    }
    if (err != 0) {
      out += "mcmm_gateway_upstream_requests_total{upstream=\"" +
             upstream_label(i) + "\",result=\"error\"} ";
      out += std::to_string(err);
      out += '\n';
    }
  }

  out +=
      "# HELP mcmm_gateway_upstream_duration_seconds Upstream exchange "
      "latency per replica.\n"
      "# TYPE mcmm_gateway_upstream_duration_seconds histogram\n";
  char label[32];
  for (std::size_t i = 0; i < upstreams_.size(); ++i) {
    const UpstreamStats& s = *upstreams_[i];
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < UpstreamStats::kBucketMicros.size(); ++b) {
      cumulative += s.buckets[b].load(std::memory_order_relaxed);
      std::snprintf(label, sizeof label, "%g",
                    static_cast<double>(UpstreamStats::kBucketMicros[b]) /
                        1e6);
      out += "mcmm_gateway_upstream_duration_seconds_bucket{upstream=\"" +
             upstream_label(i) + "\",le=\"";
      out += label;
      out += "\"} ";
      out += std::to_string(cumulative);
      out += '\n';
    }
    cumulative += s.buckets[UpstreamStats::kBucketMicros.size()].load(
        std::memory_order_relaxed);
    out += "mcmm_gateway_upstream_duration_seconds_bucket{upstream=\"" +
           upstream_label(i) + "\",le=\"+Inf\"} ";
    out += std::to_string(cumulative);
    out += '\n';
    std::snprintf(
        label, sizeof label, "%.6f",
        static_cast<double>(
            s.latency_sum_micros.load(std::memory_order_relaxed)) /
            1e6);
    out += "mcmm_gateway_upstream_duration_seconds_sum{upstream=\"" +
           upstream_label(i) + "\"} ";
    out += label;
    out += '\n';
    out += "mcmm_gateway_upstream_duration_seconds_count{upstream=\"" +
           upstream_label(i) + "\"} ";
    out += std::to_string(cumulative);
    out += '\n';
  }

  const auto counter = [&out](const char* name, const char* help,
                              std::uint64_t value) {
    out += "# HELP ";
    out += name;
    out += ' ';
    out += help;
    out += "\n# TYPE ";
    out += name;
    out += " counter\n";
    out += name;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  };
  counter("mcmm_gateway_retries_total",
          "Transparent retries sent to a different replica.",
          retries_.load(std::memory_order_relaxed));
  counter("mcmm_gateway_retry_budget_exhausted_total",
          "Retries or hedges suppressed by the global retry budget.",
          budget_exhausted_.load(std::memory_order_relaxed));
  counter("mcmm_gateway_hedges_total", "Latency hedges issued.",
          hedges_.load(std::memory_order_relaxed));
  counter("mcmm_gateway_hedge_wins_total",
          "Hedged requests where the hedge answered first.",
          hedge_wins_.load(std::memory_order_relaxed));
  counter("mcmm_gateway_ejections_total",
          "Replicas ejected by the health prober.",
          registry.ejections_total());

  out +=
      "# HELP mcmm_gateway_replica_health Replica health "
      "(1 healthy, 0.5 half-open, 0 ejected or starting).\n"
      "# TYPE mcmm_gateway_replica_health gauge\n";
  const std::int64_t now_ms = steady_now_ms();
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const char* value = "0";
    switch (registry.at(i).health.load(std::memory_order_relaxed)) {
      case ReplicaHealth::Healthy:
        value = "1";
        break;
      case ReplicaHealth::HalfOpen:
        value = "0.5";
        break;
      case ReplicaHealth::Ejected:
      case ReplicaHealth::Starting:
        value = "0";
        break;
    }
    out += "mcmm_gateway_replica_health{upstream=\"" + upstream_label(i) +
           "\"} ";
    out += value;
    out += '\n';
  }

  out +=
      "# HELP mcmm_gateway_breaker_state Circuit breaker state per replica "
      "(0 closed, 1 open, 2 half-open).\n"
      "# TYPE mcmm_gateway_breaker_state gauge\n";
  for (std::size_t i = 0; i < registry.size(); ++i) {
    int value = 0;
    switch (registry.at(i).breaker.state(now_ms)) {
      case CircuitBreaker::State::Closed:
        value = 0;
        break;
      case CircuitBreaker::State::Open:
        value = 1;
        break;
      case CircuitBreaker::State::HalfOpen:
        value = 2;
        break;
    }
    out += "mcmm_gateway_breaker_state{upstream=\"" + upstream_label(i) +
           "\"} ";
    out += std::to_string(value);
    out += '\n';
  }

  out +=
      "# HELP mcmm_gateway_healthy_replicas Replicas currently taking "
      "traffic.\n"
      "# TYPE mcmm_gateway_healthy_replicas gauge\n"
      "mcmm_gateway_healthy_replicas ";
  out += std::to_string(registry.healthy_count());
  out += '\n';
  return out;
}

}  // namespace mcmm::gateway
