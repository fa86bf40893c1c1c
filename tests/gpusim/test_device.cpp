#include "gpusim/device.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "gpusim/error.hpp"

namespace mcmm::gpusim {
namespace {

TEST(Descriptor, PresetsMatchVendors) {
  EXPECT_EQ(mi250x_like().vendor, Vendor::AMD);
  EXPECT_EQ(ponte_vecchio_like().vendor, Vendor::Intel);
  EXPECT_EQ(h100_like().vendor, Vendor::NVIDIA);
  for (const Vendor v : kAllVendors) {
    EXPECT_EQ(descriptor_for(v).vendor, v);
  }
}

TEST(Descriptor, PlausibleRelativeMagnitudes) {
  // H100-class memory bandwidth exceeds the one-GCD MI250X and PVC values.
  EXPECT_GT(h100_like().mem_bandwidth_gbps, mi250x_like().mem_bandwidth_gbps);
  // AMD wavefronts are 64 wide; the others use 32.
  EXPECT_EQ(mi250x_like().warp_size, 64u);
  EXPECT_EQ(h100_like().warp_size, 32u);
  for (const Vendor v : kAllVendors) {
    const DeviceDescriptor d = descriptor_for(v);
    EXPECT_GT(d.memory_bytes, 0u);
    EXPECT_GT(d.mem_bandwidth_gbps, d.pcie_bandwidth_gbps);
    EXPECT_GT(d.kernel_launch_latency_us, 0.0);
  }
}

TEST(Device, AllocateTracksPointers) {
  Device dev(tiny_test_device(1 << 20));
  void* p = dev.allocate(1024);
  EXPECT_TRUE(dev.is_device_pointer(p));
  int host = 0;
  EXPECT_FALSE(dev.is_device_pointer(&host));
  dev.deallocate(p);
  EXPECT_FALSE(dev.is_device_pointer(p));
}

TEST(Device, PlatformHasOneDevicePerVendor) {
  Platform& platform = Platform::instance();
  for (const Vendor v : kAllVendors) {
    EXPECT_EQ(platform.device(v).vendor(), v);
    // Stable identity across calls.
    EXPECT_EQ(&platform.device(v), &platform.device(v));
  }
}

TEST(Queue, MemcpyRoundTrip) {
  Device dev(tiny_test_device(1 << 20));
  Queue& q = dev.default_queue();
  std::vector<double> host(256);
  std::iota(host.begin(), host.end(), 0.0);
  auto* d = static_cast<double*>(dev.allocate(256 * sizeof(double)));
  q.memcpy(d, host.data(), 256 * sizeof(double), CopyKind::HostToDevice);
  std::vector<double> back(256, -1.0);
  q.memcpy(back.data(), d, 256 * sizeof(double), CopyKind::DeviceToHost);
  EXPECT_EQ(back, host);
  dev.deallocate(d);
}

TEST(Queue, MemcpyValidatesDirections) {
  Device dev(tiny_test_device(1 << 20));
  Queue& q = dev.default_queue();
  std::vector<char> host(64);
  auto* d1 = static_cast<char*>(dev.allocate(64));
  auto* d2 = static_cast<char*>(dev.allocate(64));
  // H2D with device source is invalid.
  EXPECT_THROW(q.memcpy(d1, d2, 64, CopyKind::HostToDevice), InvalidPointer);
  // D2H with device destination is invalid.
  EXPECT_THROW(q.memcpy(d1, d2, 64, CopyKind::DeviceToHost), InvalidPointer);
  // H2D into host memory is invalid.
  EXPECT_THROW(q.memcpy(host.data(), host.data(), 64, CopyKind::HostToDevice),
               InvalidPointer);
  // D2D between device blocks is fine.
  EXPECT_NO_THROW(q.memcpy(d1, d2, 64, CopyKind::DeviceToDevice));
  dev.deallocate(d1);
  dev.deallocate(d2);
}

TEST(Queue, MemcpyRejectsOverrun) {
  Device dev(tiny_test_device(1 << 20));
  Queue& q = dev.default_queue();
  std::vector<char> host(128);
  auto* d = static_cast<char*>(dev.allocate(64));
  EXPECT_THROW(q.memcpy(d, host.data(), 128, CopyKind::HostToDevice),
               InvalidPointer);
  dev.deallocate(d);
}

TEST(Queue, MemsetWritesDeviceMemory) {
  Device dev(tiny_test_device(1 << 20));
  Queue& q = dev.default_queue();
  auto* d = static_cast<unsigned char*>(dev.allocate(64));
  q.memset(d, 0xAB, 64);
  std::vector<unsigned char> back(64);
  q.memcpy(back.data(), d, 64, CopyKind::DeviceToHost);
  for (const unsigned char c : back) EXPECT_EQ(c, 0xAB);
  dev.deallocate(d);
}

TEST(Queue, ZeroLengthCopyAndFillTouchNothing) {
  // An empty host vector hands in a null pointer with a zero length (a
  // zero-length syclx buffer materializing does this); the copy must not
  // reach libc's memcpy, whose pointers must be non-null even then.
  Device dev(tiny_test_device(1 << 20));
  Queue& q = dev.default_queue();
  auto* d = static_cast<unsigned char*>(dev.allocate(64));
  q.memset(d, 0xAB, 64);
  const double before = q.simulated_time_us();
  EXPECT_NO_THROW(q.memcpy(d, nullptr, 0, CopyKind::HostToDevice));
  EXPECT_NO_THROW(q.memcpy(nullptr, d, 0, CopyKind::DeviceToHost));
  EXPECT_NO_THROW(q.memset(d, 0, 0));
  EXPECT_GT(q.simulated_time_us(), before);  // each op still pays latency
  std::vector<unsigned char> back(64);
  q.memcpy(back.data(), d, 64, CopyKind::DeviceToHost);
  for (const unsigned char c : back) EXPECT_EQ(c, 0xAB);
  dev.deallocate(d);
}

TEST(Queue, LaunchRunsEveryWorkItem) {
  Device dev(tiny_test_device(1 << 20));
  Queue& q = dev.default_queue();
  constexpr std::uint64_t n = 10000;
  auto* d = static_cast<int*>(dev.allocate(n * sizeof(int)));
  q.memset(d, 0, n * sizeof(int));
  const LaunchConfig cfg = launch_1d(n, 256);
  q.launch(cfg, KernelCosts{}, [d, n](const WorkItem& item) {
    const std::uint64_t i = item.global_x();
    if (i < n) d[i] = static_cast<int>(i);
  });
  std::vector<int> back(n);
  q.memcpy(back.data(), d, n * sizeof(int), CopyKind::DeviceToHost);
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(back[i], static_cast<int>(i));
  }
  dev.deallocate(d);
}

TEST(Queue, Launch3dCoordinatesConsistent) {
  Device dev(tiny_test_device(1 << 20));
  Queue& q = dev.default_queue();
  LaunchConfig cfg;
  cfg.grid = {3, 2, 2};
  cfg.block = {4, 2, 1};
  std::vector<std::atomic<int>> hits(cfg.total_threads());
  q.launch(cfg, KernelCosts{}, [&](const WorkItem& item) {
    // Every coordinate must be within bounds.
    ASSERT_LT(item.block_idx.x, cfg.grid.x);
    ASSERT_LT(item.block_idx.y, cfg.grid.y);
    ASSERT_LT(item.block_idx.z, cfg.grid.z);
    ASSERT_LT(item.thread_idx.x, cfg.block.x);
    ASSERT_LT(item.thread_idx.y, cfg.block.y);
    ASSERT_LT(item.thread_idx.z, cfg.block.z);
    hits[item.global_linear].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Queue, LaunchValidatesBlockLimit) {
  Device dev(tiny_test_device(1 << 20));
  LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {2048, 1, 1};  // over the 1024 limit
  EXPECT_THROW(
      dev.default_queue().launch(cfg, KernelCosts{}, [](const WorkItem&) {}),
      InvalidLaunch);
}

TEST(Queue, LaunchRejectsEmptyConfig) {
  Device dev(tiny_test_device(1 << 20));
  LaunchConfig cfg;
  cfg.grid = {0, 1, 1};
  cfg.block = {32, 1, 1};
  EXPECT_THROW(
      dev.default_queue().launch(cfg, KernelCosts{}, [](const WorkItem&) {}),
      InvalidLaunch);
}

TEST(Queue, SimulatedClockAdvances) {
  Device dev(tiny_test_device(1 << 20));
  Queue& q = dev.default_queue();
  const double t0 = q.simulated_time_us();
  KernelCosts costs;
  costs.bytes_read = 1e9;  // 1 GB read
  const Event e =
      q.launch(launch_1d(1, 1), costs, [](const WorkItem&) {});
  EXPECT_GT(e.duration_us(), 0.0);
  EXPECT_GT(q.simulated_time_us(), t0);
  EXPECT_DOUBLE_EQ(q.simulated_time_us(), e.sim_end_us);
}

TEST(Queue, EventsAreOrderedAlongTheTimeline) {
  Device dev(tiny_test_device(1 << 20));
  Queue& q = dev.default_queue();
  const Event a = q.launch(launch_1d(16, 16), KernelCosts{},
                           [](const WorkItem&) {});
  const Event b = q.launch(launch_1d(16, 16), KernelCosts{},
                           [](const WorkItem&) {});
  EXPECT_GE(b.sim_begin_us, a.sim_end_us);
  const Event now = q.record();
  EXPECT_DOUBLE_EQ(now.sim_begin_us, q.simulated_time_us());
}

}  // namespace
}  // namespace mcmm::gpusim
