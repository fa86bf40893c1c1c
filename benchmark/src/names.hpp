#pragma once
// The names the benchmark prints: its workloads and, per mode, its
// metrics. BENCHMARK.json must list exactly these (run.py --self-test
// checks it).

#include <string_view>

namespace mcmm::bm {

inline constexpr std::string_view kWorkloads[] = {"serve-lookup",
                                                   "serve-plan"};

/// One printed metric: its name and unit.
struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

/// The end-to-end metrics every workload reports with --trace 0. An
/// operation is one request.
inline constexpr MetricSpec kEndToEnd[] = {
    {"p50_ms", "ms"},
    {"cpu_us_per_op", "us"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/// The per-layer metrics every workload reports with --trace 1: workload
/// diagnostics and layer accounting first, then the layer probes.
inline constexpr MetricSpec kPerLayer[] = {
    {"error_rate", "ratio"},
    {"latency.p90_ms", "ms"},
    {"latency.p99_ms", "ms"},
    {"latency.p999_ms", "ms"},
    {"latency.max_ms", "ms"},
    {"loadgen.lag_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"account.e2e_us", "us"},
    {"account.layers_us", "us"},
    {"account.remainder_us", "us"},
    {"serve.loopback_rtt_us", "us"},
    {"serve.parse_ns", "ns"},
    {"serve.api_lookup_ns", "ns"},
    {"serve.api_plan_us", "us"},
    {"serve.serialize_ns", "ns"},
    {"serve.direct_p50_us", "us"},
    {"serve.transport_us", "us"},
    {"serve.wakeups_per_req", "count"},
    {"serve.dispatches_per_req", "count"},
    {"serve.not_modified_share", "ratio"},
    {"gateway.hop_us", "us"},
    {"gateway.retries", "count"},
    {"gateway.hedges", "count"},
    {"gateway.hedge_win_ratio", "ratio"},
    {"gateway.budget_exhausted", "count"},
    {"gpusim.pool_dispatch_ns", "ns"},
    {"gpusim.queue_launch_ns", "ns"},
    {"gpusim.memcpy_gbps", "GB/s"},
    {"gpusim.graph_instantiate_us", "us"},
    {"gpusim.graph_replay_ns_per_node", "ns"},
    {"models.cuda.launch_ns", "ns"},
    {"models.hip.launch_ns", "ns"},
    {"models.sycl.launch_ns", "ns"},
    {"models.omp.launch_ns", "ns"},
    {"models.acc.launch_ns", "ns"},
    {"models.stdpar.launch_ns", "ns"},
    {"models.kokkos.launch_ns", "ns"},
    {"models.alpaka.launch_ns", "ns"},
    {"stream.copy.host_gbps", "GB/s"},
    {"stream.mul.host_gbps", "GB/s"},
    {"stream.add.host_gbps", "GB/s"},
    {"stream.triad.host_gbps", "GB/s"},
    {"stream.dot.host_gbps", "GB/s"},
    {"stream.reduce.host_gbps", "GB/s"},
    {"stream.uneven.host_gbps", "GB/s"},
    {"gpuprof.hook_ns", "ns"},
    {"pstlx.transform_reduce_us", "us"},
    {"perfport.suite_ms", "ms"},
    {"perfport.build_rows_us", "us"},
    {"perfport.report_json_ms", "ms"},
    {"perfport.launches", "count"},
    {"perfport.samples_verified", "count"},
};

}  // namespace mcmm::bm
