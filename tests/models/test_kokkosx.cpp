#include "models/kokkosx/kokkosx.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace mcmm::kokkosx {
namespace {

TEST(Kokkosx, ExecSpaceVendorMatrix) {
  // Fig. 1's Kokkos column (items 13, 28, 42).
  EXPECT_TRUE(exec_space_targets(ExecSpace::Cuda, Vendor::NVIDIA));
  EXPECT_FALSE(exec_space_targets(ExecSpace::Cuda, Vendor::AMD));
  EXPECT_TRUE(exec_space_targets(ExecSpace::HIP, Vendor::AMD));
  EXPECT_FALSE(exec_space_targets(ExecSpace::HIP, Vendor::Intel));
  EXPECT_TRUE(exec_space_targets(ExecSpace::SYCL, Vendor::Intel));
  EXPECT_TRUE(exec_space_targets(ExecSpace::OpenMPTarget, Vendor::NVIDIA));
  EXPECT_TRUE(exec_space_targets(ExecSpace::OpenMPTarget, Vendor::AMD));
  EXPECT_FALSE(exec_space_targets(ExecSpace::OpenMPTarget, Vendor::Intel));
}

TEST(Kokkosx, EveryVendorReachableBySomeSpace) {
  for (const Vendor v : kAllVendors) {
    bool reachable = false;
    for (const ExecSpace s : {ExecSpace::Cuda, ExecSpace::HIP, ExecSpace::SYCL,
                              ExecSpace::OpenMPTarget}) {
      if (exec_space_targets(s, v)) reachable = true;
    }
    EXPECT_TRUE(reachable) << to_string(v);
  }
}

TEST(Kokkosx, MismatchedSpaceThrows) {
  EXPECT_THROW(Execution(ExecSpace::Cuda, Vendor::AMD),
               UnsupportedCombination);
  EXPECT_THROW(Execution(ExecSpace::HIP, Vendor::NVIDIA),
               UnsupportedCombination);
  EXPECT_THROW(Execution(ExecSpace::SYCL, Vendor::NVIDIA),
               UnsupportedCombination);
}

TEST(Kokkosx, SyclBackendIsExperimental) {
  Execution intel(ExecSpace::SYCL, Vendor::Intel);
  EXPECT_TRUE(intel.experimental());
  Execution nvidia(ExecSpace::Cuda, Vendor::NVIDIA);
  EXPECT_FALSE(nvidia.experimental());
  // Experimental backends run at reduced efficiency.
  EXPECT_LT(intel.queue().backend_profile().bandwidth_efficiency,
            nvidia.queue().backend_profile().bandwidth_efficiency);
}

TEST(Kokkosx, ViewsAreReferenceCounted) {
  Execution exec(ExecSpace::Cuda, Vendor::NVIDIA);
  const std::size_t before = exec.device().allocator().live_allocations();
  {
    View<double> a(exec, "a", 128);
    EXPECT_EQ(a.use_count(), 1);
    {
      View<double> b = a;  // NOLINT(performance-unnecessary-copy-initialization)
      EXPECT_EQ(a.use_count(), 2);
      EXPECT_EQ(b.data(), a.data());
    }
    EXPECT_EQ(a.use_count(), 1);
    EXPECT_EQ(exec.device().allocator().live_allocations(), before + 1);
  }
  EXPECT_EQ(exec.device().allocator().live_allocations(), before);
}

TEST(Kokkosx, ViewLabels) {
  Execution exec(ExecSpace::Cuda, Vendor::NVIDIA);
  View<int> v(exec, "forces", 16);
  EXPECT_EQ(v.label(), "forces");
  EXPECT_EQ(v.size(), 16u);
}

struct SpaceVendor {
  ExecSpace space;
  Vendor vendor;
};

class KokkosRoutes : public ::testing::TestWithParam<SpaceVendor> {};

TEST_P(KokkosRoutes, ParallelForAxpy) {
  Execution exec(GetParam().space, GetParam().vendor);
  constexpr std::size_t n = 5000;
  View<double> x(exec, "x", n);
  View<double> y(exec, "y", n);
  std::vector<double> hx(n, 2.0), hy(n, 1.0);
  deep_copy_to_device(x, hx.data());
  deep_copy_to_device(y, hy.data());
  parallel_for(exec, RangePolicy{0, n}, gpusim::KernelCosts{},
               [x, y](std::size_t i) { y(i) += 3.0 * x(i); });
  std::vector<double> out(n);
  deep_copy_to_host(out.data(), y);
  for (const double v : out) ASSERT_DOUBLE_EQ(v, 7.0);
}

TEST_P(KokkosRoutes, ParallelReduceDot) {
  Execution exec(GetParam().space, GetParam().vendor);
  constexpr std::size_t n = 8192;
  View<double> x(exec, "x", n);
  View<double> y(exec, "y", n);
  std::vector<double> h(n, 0.5);
  deep_copy_to_device(x, h.data());
  deep_copy_to_device(y, h.data());
  double dot = 0.0;
  parallel_reduce(
      exec, RangePolicy{0, n}, gpusim::KernelCosts{},
      [x, y](std::size_t i, double& update) { update += x(i) * y(i); }, dot);
  EXPECT_DOUBLE_EQ(dot, 0.25 * n);
}

// Static storage zero-fills the padding after `vendor`, and gtest prints
// the parameter's raw bytes into each test's name, so a table keeps the
// names the same from build to build.
constexpr SpaceVendor kKokkosRoutes[] = {
    {ExecSpace::Cuda, Vendor::NVIDIA},
    {ExecSpace::HIP, Vendor::AMD},
    {ExecSpace::SYCL, Vendor::Intel},
    {ExecSpace::OpenMPTarget, Vendor::NVIDIA},
    {ExecSpace::OpenMPTarget, Vendor::AMD},
};

INSTANTIATE_TEST_SUITE_P(
    Figure1KokkosColumn, KokkosRoutes,
    ::testing::ValuesIn(kKokkosRoutes),
    [](const ::testing::TestParamInfo<SpaceVendor>& info) {
      return std::string(to_string(info.param.space)) + "_" +
             std::string(to_string(info.param.vendor));
    });

TEST(Kokkosx, ParallelScanInclusivePrefixSum) {
  Execution exec(ExecSpace::Cuda, Vendor::NVIDIA);
  constexpr std::size_t n = 1000;
  View<long> in(exec, "in", n);
  View<long> out(exec, "out", n);
  std::vector<long> host(n, 1);
  deep_copy_to_device(in, host.data());
  parallel_scan<long>(exec, RangePolicy{0, n}, gpusim::KernelCosts{},
                      [in, out](std::size_t i, long& update, bool final) {
                        update += in(i);
                        if (final) out(i) = update;
                      });
  std::vector<long> result(n);
  deep_copy_to_host(result.data(), out);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(result[i], static_cast<long>(i + 1)) << i;
  }
}

TEST(Kokkosx, ParallelScanNonUniformValues) {
  Execution exec(ExecSpace::HIP, Vendor::AMD);
  constexpr std::size_t n = 777;
  View<long> in(exec, "in", n);
  View<long> out(exec, "out", n);
  std::vector<long> host(n);
  for (std::size_t i = 0; i < n; ++i) host[i] = static_cast<long>(i % 13);
  deep_copy_to_device(in, host.data());
  parallel_scan<long>(exec, RangePolicy{0, n}, gpusim::KernelCosts{},
                      [in, out](std::size_t i, long& update, bool final) {
                        update += in(i);
                        if (final) out(i) = update;
                      });
  std::vector<long> result(n);
  deep_copy_to_host(result.data(), out);
  long expected = 0;
  for (std::size_t i = 0; i < n; ++i) {
    expected += host[i];
    ASSERT_EQ(result[i], expected) << i;
  }
}

TEST(Kokkosx, DeepCopyDeviceToDevice) {
  Execution exec(ExecSpace::Cuda, Vendor::NVIDIA);
  constexpr std::size_t n = 256;
  View<int> a(exec, "a", n);
  View<int> b(exec, "b", n);
  std::vector<int> host(n, 9);
  deep_copy_to_device(a, host.data());
  deep_copy(b, a);
  std::vector<int> out(n);
  deep_copy_to_host(out.data(), b);
  for (const int v : out) ASSERT_EQ(v, 9);
}

TEST(Kokkosx, RangePolicyWithOffset) {
  Execution exec(ExecSpace::Cuda, Vendor::NVIDIA);
  constexpr std::size_t n = 100;
  View<int> v(exec, "v", n);
  std::vector<int> host(n, 0);
  deep_copy_to_device(v, host.data());
  parallel_for(exec, RangePolicy{10, 20}, gpusim::KernelCosts{},
               [v](std::size_t i) { v(i) = 1; });
  deep_copy_to_host(host.data(), v);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(host[i], (i >= 10 && i < 20) ? 1 : 0) << i;
  }
}

}  // namespace
}  // namespace mcmm::kokkosx
