// The multi-device weak-scaling campaign: the BabelStream cycle plus
// Reduce/Uneven at a fixed n *per device*, dogfooding the gpusim graph
// layer — each device's repetition suite is captured once into a Graph,
// instantiated, and replayed, so the per-device roofline attribution
// flows through gpuprof's folded graph-replay path rather than per-launch
// events. Dot/Reduce partials are gathered to device 0 over the simulated
// peer link (memcpy_peer), whose cost is the only thing separating T_N
// from T_1 — the weak-scaling efficiency story.

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "bench_support/stream.hpp"
#include "bench_support/stream_kernels.hpp"
#include "gpuprof/gpuprof.hpp"
#include "gpusim/descriptor.hpp"
#include "gpusim/device.hpp"
#include "gpusim/graph.hpp"
#include "gpusim/profiler.hpp"
#include "perfport/perfport.hpp"

namespace mcmm::perfport {
namespace {

using bench::kChunks;
using gpusim::KernelCosts;

[[nodiscard]] KernelCosts combine_costs() {
  KernelCosts c;
  c.bytes_read = kChunks * sizeof(double);
  c.bytes_written = sizeof(double);
  c.flops = kChunks;
  return c;
}

/// One scenario device: its buffers and the captured/instantiated suite
/// graph. results[0] holds the device's Dot value, results[1] its Reduce
/// value, both overwritten per repetition by the combine nodes.
struct ScenarioDevice {
  gpusim::Device* dev{nullptr};
  gpusim::Queue* q{nullptr};
  double* a{nullptr};
  double* b{nullptr};
  double* c{nullptr};
  double* partials{nullptr};
  double* results{nullptr};
  gpusim::Graph graph;
  std::vector<gpusim::ExecutableGraph> exec;  ///< 0 or 1; Graph is move-only

  void alloc(std::size_t n) {
    a = static_cast<double*>(dev->allocate(n * sizeof(double)));
    b = static_cast<double*>(dev->allocate(n * sizeof(double)));
    c = static_cast<double*>(dev->allocate(n * sizeof(double)));
    partials = static_cast<double*>(dev->allocate(kChunks * sizeof(double)));
    results = static_cast<double*>(dev->allocate(2 * sizeof(double)));
  }
  void free_all() {
    for (void* p : {static_cast<void*>(a), static_cast<void*>(b),
                    static_cast<void*>(c), static_cast<void*>(partials),
                    static_cast<void*>(results)}) {
      if (p != nullptr) dev->deallocate(p);
    }
    a = b = c = partials = results = nullptr;
  }
};

/// Captures one repetition of the suite — Copy, Mul, Add, Triad, Dot
/// (partials + combine), Reduce (partials + combine), Uneven — from the
/// device's queue into d.graph, then instantiates it.
void capture_suite(ScenarioDevice& d, std::size_t n) {
  using bench::StreamKernel;
  using Arrays = bench::StreamArrays<double*>;
  const Arrays s{d.a, d.b, d.c};
  gpusim::Queue& q = *d.q;
  // Two-phase reduction on the device: kChunks partials (whose write the
  // partial kernel declares on top of the kernel's cost), then one work
  // item combines them into d.results[slot].
  const auto two_phase = [&](const char* label, StreamKernel kind,
                             std::size_t slot, auto term) {
    const gpusim::KernelLabelScope scope(label);
    KernelCosts partial = bench::costs_for(kind, n);
    partial.bytes_written += kChunks * sizeof(double);
    (void)q.launch(gpusim::launch_1d(kChunks, 1), partial,
                   [p = d.partials, n, term](const gpusim::WorkItem& it) {
                     bench::chunk_partial(it.global_x(), n, p, term);
                   });
    (void)q.launch(gpusim::launch_1d(1, 1), combine_costs(),
                   [p = d.partials, r = d.results + slot](
                       const gpusim::WorkItem&) {
                     double acc = 0.0;
                     for (std::uint32_t i = 0; i < kChunks; ++i) acc += p[i];
                     *r = acc;
                   });
  };

  q.begin_capture(d.graph);
  bench::launch_elements<&Arrays::copy>(q, "Copy", StreamKernel::Copy, s, n);
  bench::launch_elements<&Arrays::mul>(q, "Mul", StreamKernel::Mul, s, n);
  bench::launch_elements<&Arrays::add>(q, "Add", StreamKernel::Add, s, n);
  bench::launch_elements<&Arrays::triad>(q, "Triad", StreamKernel::Triad, s,
                                         n);
  two_phase("Dot", StreamKernel::Dot, 0,
            [s](std::size_t i) { return s.dot_term(i); });
  two_phase("Reduce", StreamKernel::Reduce, 1,
            [s](std::size_t i) { return s.reduce_term(i); });
  bench::launch_elements<&Arrays::uneven>(q, "Uneven", StreamKernel::Uneven,
                                          s, n);
  (void)q.end_capture();
  d.exec.emplace_back(d.graph, q);
}

[[nodiscard]] WeakScalingSample run_scenario(Vendor vendor, unsigned count,
                                             const WeakScalingConfig& cfg) {
  gpusim::Platform& platform = gpusim::Platform::instance();
  // Fresh devices (clocks at zero) with the canonical ordinal naming:
  // scenario timing depends only on (vendor, count, n, reps). Resetting
  // ordinal 0 instead of trimming it keeps the rail's pool.
  platform.trim_devices(vendor, 1);
  (void)platform.reset_device(vendor, gpusim::descriptor_for(vendor));
  (void)platform.device(vendor, count - 1);

  const std::size_t n = cfg.n_per_device;
  std::vector<ScenarioDevice> devs(count);
  for (unsigned d = 0; d < count; ++d) {
    devs[d].dev = &platform.device(vendor, d);
    devs[d].q = &devs[d].dev->default_queue();
    devs[d].alloc(n);
  }
  // Gather target on device 0: (dot, reduce) per device, ordinal order.
  auto* gather = static_cast<double*>(
      devs[0].dev->allocate(2 * count * sizeof(double)));

  WeakScalingSample sample;
  sample.vendor = vendor;
  sample.devices = count;
  sample.n_per_device = n;
  sample.reps = cfg.reps;
  sample.p2p_us = 0.0;

  // Eager init (not part of the replayed graph), then capture one
  // repetition per device and instantiate. Both happen outside the
  // profiler capture below so the roofline shares contain exactly the
  // folded graph-replay attribution.
  for (ScenarioDevice& d : devs) {
    using Arrays = bench::StreamArrays<double*>;
    bench::launch_elements<&Arrays::init>(*d.q, "Init",
                                          bench::StreamKernel::Copy,
                                          Arrays{d.a, d.b, d.c}, n);
    capture_suite(d, n);
  }
  sample.graph_nodes = devs[0].exec.front().node_count();

  const gpuprof::Trace trace = gpuprof::capture_trace([&] {
    for (int r = 0; r < cfg.reps; ++r) {
      for (ScenarioDevice& d : devs) {
        (void)d.exec.front().replay(*d.q);
      }
    }
    // Gather every device's (dot, reduce) pair to device 0: the peer-link
    // traffic that separates T_N from T_1.
    (void)devs[0].q->memcpy(gather, devs[0].results, 2 * sizeof(double),
                            gpusim::CopyKind::DeviceToDevice);
    for (unsigned d = 1; d < count; ++d) {
      const gpusim::Event e = devs[d].q->memcpy_peer(
          gather + 2 * d, *devs[0].dev, devs[d].results, 2 * sizeof(double));
      sample.p2p_us += e.duration_us();
    }
  });

  // T_N: the scenario ends when the slowest device (including its gather
  // contribution) finishes. Verification D2H reads below are excluded.
  sample.sim_us = 0.0;
  for (const ScenarioDevice& d : devs) {
    sample.sim_us = std::max(sample.sim_us, d.q->simulated_time_us());
  }

  // Verify: device 0's arrays against the scalar recurrence, and every
  // device's gathered Dot/Reduce values.
  std::vector<double> a(n), b(n), c(n), totals(2 * count);
  (void)devs[0].q->memcpy(a.data(), devs[0].a, n * sizeof(double),
                          gpusim::CopyKind::DeviceToHost);
  (void)devs[0].q->memcpy(b.data(), devs[0].b, n * sizeof(double),
                          gpusim::CopyKind::DeviceToHost);
  (void)devs[0].q->memcpy(c.data(), devs[0].c, n * sizeof(double),
                          gpusim::CopyKind::DeviceToHost);
  (void)devs[0].q->memcpy(totals.data(), gather,
                          2 * count * sizeof(double),
                          gpusim::CopyKind::DeviceToHost);
  const bool ok = bench::verify_suite(a, b, c, totals, n, cfg.reps);
  sample.verified = ok;

  // Per-device roofline shares from the folded graph-replay attribution.
  const std::vector<gpuprof::KernelSummary> summaries =
      trace.kernel_summaries();
  for (unsigned d = 0; d < count; ++d) {
    DeviceShare share;
    share.device = devs[d].dev->descriptor().name;
    share.ordinal = d;
    for (const gpuprof::KernelSummary& s : summaries) {
      if (s.device != share.device) continue;
      share.sim_us += s.sim_us;
      share.bytes += s.bytes;
    }
    share.achieved_gbps =
        share.sim_us > 0 ? share.bytes / (share.sim_us * 1e3) : 0.0;
    const double peak = devs[d].dev->descriptor().mem_bandwidth_gbps;
    share.pct_of_peak =
        peak > 0 ? 100.0 * share.achieved_gbps / peak : 0.0;
    sample.shares.push_back(std::move(share));
  }

  devs[0].dev->deallocate(gather);
  for (ScenarioDevice& d : devs) d.free_all();
  return sample;
}

}  // namespace

std::vector<WeakScalingSample> run_weak_scaling(
    const WeakScalingConfig& config) {
  if (config.n_per_device == 0 || config.reps < 1 ||
      config.device_counts.empty() || config.vendors.empty()) {
    throw std::invalid_argument("perfport: empty weak-scaling dimension");
  }
  for (const unsigned count : config.device_counts) {
    if (count == 0) {
      throw std::invalid_argument("perfport: zero-device scenario");
    }
  }

  std::vector<WeakScalingSample> samples;
  for (const Vendor vendor : config.vendors) {
    double t1 = 0.0;
    for (const unsigned count : config.device_counts) {
      WeakScalingSample sample = run_scenario(vendor, count, config);
      // Weak-scaling efficiency is T_1 / T_N. The baseline is the
      // single-device scenario when the sweep has one, else the first
      // (smallest) scenario of this vendor.
      if (t1 == 0.0 || count == 1) t1 = sample.sim_us;
      sample.efficiency = sample.sim_us > 0 ? t1 / sample.sim_us : 0.0;
      samples.push_back(std::move(sample));
    }
    // Leave one pristine device on the vendor's rail, like the eager
    // campaign's reset_device discipline.
    gpusim::Platform::instance().trim_devices(vendor, 1);
    (void)gpusim::Platform::instance().reset_device(
        vendor, gpusim::descriptor_for(vendor));
  }
  return samples;
}

}  // namespace mcmm::perfport
