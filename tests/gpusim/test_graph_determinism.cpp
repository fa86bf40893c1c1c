// Graph-replay determinism: the device results and final simulated clock
// of a captured-and-replayed kernel graph are BIT-identical on pools of
// 1, 4 and hardware_concurrency workers, for both Static and Dynamic
// launch schedules, and identical to the eager submission of the same
// workload. Every double is fingerprinted as raw IEEE-754 bits; the
// fingerprint's FNV-1a digest is pinned, so a change shows even when
// every pool size moves the same way.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/graph.hpp"
#include "support/fnv1a.hpp"
#include "support/pools.hpp"

namespace mcmm::gpusim {
namespace {

/// Digest of the fingerprint below, recorded when each pool size still
/// ran in a process of its own (MCMM_NUM_THREADS = 1, 4 and hw).
constexpr std::uint64_t kFingerprintDigest = 0xb8a11b1177e96eadULL;

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

/// Submits the workload: init, then per rep a scaled triad, a
/// reduction into per-chunk partials (fixed chunk count, so the combine
/// order is pool-size-invariant), and a serial combine.
void submit(Queue& q, double* a, double* b, double* partials,
            std::uint64_t n, Schedule schedule) {
  constexpr std::uint64_t kChunks = 64;
  const std::uint64_t chunk = n / kChunks;
  KernelCosts costs;
  costs.bytes_read = 2.0 * static_cast<double>(n) * sizeof(double);
  costs.bytes_written = static_cast<double>(n) * sizeof(double);
  costs.flops = 2.0 * static_cast<double>(n);
  const LaunchPolicy policy{schedule, 0};
  q.launch(launch_1d(n, 256), costs, [a, b](const WorkItem& it) {
    const std::size_t i = it.global_x();
    a[i] = 0.001 * static_cast<double>(i % 97);
    b[i] = 1.0;
  });
  for (int rep = 0; rep < 3; ++rep) {
    q.launch(
        launch_1d(n, 256), costs,
        [a, b](const WorkItem& it) {
          const std::size_t i = it.global_x();
          b[i] = a[i] + 0.4 * b[i];
        },
        policy);
    q.launch(
        launch_1d(kChunks, 64), costs,
        [b, partials, chunk](const WorkItem& it) {
          const std::size_t c = it.global_x();
          double sum = 0.0;
          for (std::uint64_t i = c * chunk; i < (c + 1) * chunk; ++i) {
            sum += b[i];
          }
          partials[c] = sum;
        },
        policy);
    q.launch(launch_1d(1, 1), KernelCosts{},
             [a, partials](const WorkItem&) {
               double sum = 0.0;
               for (std::uint64_t c = 0; c < kChunks; ++c) {
                 sum += partials[c];
               }
               a[0] = sum;
             });
  }
}

/// One run on a fresh device on `pool`: eager or captured-from-clock-0
/// and replayed once. Returns "<sim bits> <a head bits...> <b head
/// bits...>".
std::string run_once(ThreadPool& pool, Schedule schedule, bool graphed) {
  constexpr std::uint64_t n = 1 << 16;
  Device dev(tiny_test_device(std::size_t{8} << 20), 0, pool);
  Queue& q = dev.default_queue();
  EXPECT_EQ(&q.pool(), &pool);
  auto* a = static_cast<double*>(dev.allocate(n * sizeof(double)));
  auto* b = static_cast<double*>(dev.allocate(n * sizeof(double)));
  auto* partials = static_cast<double*>(dev.allocate(64 * sizeof(double)));
  if (graphed) {
    Graph graph;
    q.begin_capture(graph);
    submit(q, a, b, partials, n, schedule);
    (void)q.end_capture();
    ExecutableGraph exec(graph, q);
    (void)exec.replay(q);
  } else {
    submit(q, a, b, partials, n, schedule);
  }
  std::ostringstream out;
  out << bits(q.simulated_time_us());
  std::vector<double> h(16);
  q.memcpy(h.data(), a, 16 * sizeof(double), CopyKind::DeviceToHost);
  for (const double x : h) out << ' ' << bits(x);
  q.memcpy(h.data(), b, 16 * sizeof(double), CopyKind::DeviceToHost);
  for (const double x : h) out << ' ' << bits(x);
  dev.deallocate(partials);
  dev.deallocate(b);
  dev.deallocate(a);
  return out.str();
}

TEST(GraphDeterminism, ReplayMatchesEagerAndTheDigestOnEveryPoolSize) {
  for (const unsigned workers : testing::determinism_worker_counts()) {
    SCOPED_TRACE(::testing::Message() << workers << " workers");
    ThreadPool pool(workers);
    std::string fingerprint;
    for (const Schedule s : {Schedule::Static, Schedule::Dynamic}) {
      const std::string eager = run_once(pool, s, false);
      const std::string replay = run_once(pool, s, true);
      EXPECT_EQ(eager, replay) << "replay diverged from eager";
      const std::string tag = ' ' + std::to_string(static_cast<int>(s)) + ' ';
      fingerprint += "eager" + tag + eager + '\n';
      fingerprint += "replay" + tag + replay + '\n';
    }
    EXPECT_EQ(testing::fnv1a(fingerprint), kFingerprintDigest)
        << fingerprint;
  }
}

}  // namespace
}  // namespace mcmm::gpusim
