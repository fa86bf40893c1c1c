// Simulated-time determinism: the traced simulated timestamps are
// BIT-identical (not approximately equal) on pools of 1, 4 and
// hardware_concurrency workers, and identical with the profiler on or
// off. Every timestamp is fingerprinted as raw IEEE-754 bits; the
// fingerprint's FNV-1a digest is pinned.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gpuprof/gpuprof.hpp"
#include "gpusim/device.hpp"
#include "support/fnv1a.hpp"
#include "support/pools.hpp"

namespace {

using mcmm::Vendor;
using mcmm::gpusim::Device;
using mcmm::gpusim::KernelCosts;
using mcmm::gpusim::LaunchPolicy;
using mcmm::gpusim::Queue;
using mcmm::gpusim::Schedule;
using mcmm::gpusim::ThreadPool;
using mcmm::gpusim::WorkItem;
using mcmm::gpusim::launch_1d;

/// Digest of sim_fingerprint(trace of run_workload), recorded when each
/// pool size still ran in a process of its own (MCMM_NUM_THREADS = 1, 4
/// and hw).
constexpr std::uint64_t kTraceDigest = 0xb196615968542ef1ULL;

/// A deterministic mixed workload touching every traced op kind, both
/// schedules, and all three vendor descriptors, on devices run by `pool`.
void run_workload(ThreadPool& pool) {
  constexpr std::uint64_t n = 1 << 14;
  // Every device lives until the end, so each queue has an address of its
  // own: the profiler numbers queues by address, and a freed queue's
  // address may or may not be reused depending on the allocator.
  std::vector<std::unique_ptr<Device>> devices;
  for (const Vendor v : {Vendor::AMD, Vendor::Intel, Vendor::NVIDIA}) {
    Device& dev = *devices.emplace_back(std::make_unique<Device>(
        mcmm::gpusim::descriptor_for(v), 0, pool));
    Queue& q = dev.default_queue();
    EXPECT_EQ(&q.pool(), &pool);
    auto* d = static_cast<double*>(dev.allocate(n * sizeof(double)));
    std::vector<double> h(n, 1.0);
    q.memcpy(d, h.data(), n * sizeof(double),
             mcmm::gpusim::CopyKind::HostToDevice);
    KernelCosts costs;
    costs.bytes_read = 2.0 * n * sizeof(double);
    costs.bytes_written = 1.0 * n * sizeof(double);
    costs.flops = 2.0 * n;
    for (int rep = 0; rep < 4; ++rep) {
      mcmm::gpusim::KernelLabelScope label("det-kernel");
      q.launch(
          launch_1d(n, 256), costs,
          [d](const WorkItem& item) { d[item.global_x()] *= 1.5; },
          LaunchPolicy{rep % 2 == 0 ? Schedule::Static : Schedule::Dynamic,
                       0});
    }
    q.memset(d, 0, n * sizeof(double));
    q.memcpy(h.data(), d, n * sizeof(double),
             mcmm::gpusim::CopyKind::DeviceToHost);
    (void)q.record();
    q.synchronize();
    dev.deallocate(d);
  }
}

/// Hex bit pattern of a double: bit-identical comparison, immune to
/// printf rounding.
std::string bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(u));
  return buffer;
}

/// The canonical text form of a trace's simulated timeline: one line per
/// event with everything the cost model determines. Host wall times are
/// intentionally excluded — they are allowed to vary.
std::string sim_fingerprint(const mcmm::gpuprof::Trace& trace) {
  std::ostringstream out;
  for (const mcmm::gpuprof::TraceEvent& e : trace.events) {
    out << e.queue_id << ' ' << static_cast<int>(e.kind) << ' ' << e.name
        << ' ' << e.items << ' ' << bits(e.total_bytes()) << ' '
        << bits(e.sim_begin_us) << ' ' << bits(e.sim_end_us) << '\n';
  }
  return out.str();
}

TEST(Determinism, SimTimestampsMatchTheDigestOnEveryPoolSize) {
  for (const unsigned workers : mcmm::testing::determinism_worker_counts()) {
    SCOPED_TRACE(::testing::Message() << workers << " workers");
    ThreadPool pool(workers);
    mcmm::gpuprof::reset();
    mcmm::gpuprof::enable();
    run_workload(pool);
    const mcmm::gpuprof::Trace trace = mcmm::gpuprof::finalize();
    mcmm::gpuprof::reset();
    ASSERT_FALSE(trace.empty());
    const std::string fingerprint = sim_fingerprint(trace);
    EXPECT_EQ(mcmm::testing::fnv1a(fingerprint), kTraceDigest)
        << fingerprint;
  }
}

TEST(Determinism, SimTimestampsUnaffectedByProfilerOnOff) {
  // The profiler must observe, never perturb: the queue's simulated clock
  // trajectory with hooks installed is bit-identical to hooks absent.
  // (Same process, same pool — only the hook table differs.)
  const auto clock_trajectory = [] {
    std::vector<std::string> samples;
    constexpr std::uint64_t n = 1 << 12;
    Device dev(mcmm::gpusim::descriptor_for(Vendor::AMD));
    Queue& q = dev.default_queue();
    auto* d = static_cast<double*>(dev.allocate(n * sizeof(double)));
    KernelCosts costs;
    costs.bytes_read = 1.0 * n * sizeof(double);
    costs.bytes_written = 1.0 * n * sizeof(double);
    for (int rep = 0; rep < 8; ++rep) {
      q.launch(launch_1d(n, 128), costs,
               [d](const WorkItem& item) { d[item.global_x()] += 0.5; });
      samples.push_back(bits(q.simulated_time_us()));
    }
    q.memset(d, 0, n * sizeof(double));
    samples.push_back(bits(q.simulated_time_us()));
    dev.deallocate(d);
    return samples;
  };

  mcmm::gpuprof::disable();
  mcmm::gpuprof::reset();
  const std::vector<std::string> off = clock_trajectory();

  mcmm::gpuprof::enable();
  const std::vector<std::string> on = clock_trajectory();
  const mcmm::gpuprof::Trace trace = mcmm::gpuprof::finalize();

  EXPECT_EQ(off, on) << "installing the profiler changed simulated time";
  EXPECT_EQ(trace.events.size(), 9u);  // 8 launches + 1 memset, on-leg only
  mcmm::gpuprof::reset();
}

}  // namespace
