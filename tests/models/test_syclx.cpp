#include "models/syclx/syclx.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "support/rng.hpp"

namespace mcmm::syclx {
namespace {

struct Combo {
  Vendor vendor;
  Implementation impl;
};

class SyclAllRoutes : public ::testing::TestWithParam<Combo> {};

TEST_P(SyclAllRoutes, QueueConstructs) {
  const queue q(GetParam().vendor, GetParam().impl);
  EXPECT_EQ(q.vendor(), GetParam().vendor);
  EXPECT_EQ(q.implementation(), GetParam().impl);
}

TEST_P(SyclAllRoutes, UsmRoundTripAndKernel) {
  queue q(GetParam().vendor, GetParam().impl);
  constexpr std::size_t n = 2048;
  double* d = q.malloc_device<double>(n);
  std::vector<double> host(n);
  std::iota(host.begin(), host.end(), 0.0);
  q.memcpy(d, host.data(), n * sizeof(double));
  q.parallel_for(range{n}, [d](id i) { d[i] = d[i] * 2.0 + 1.0; });
  std::vector<double> back(n);
  q.memcpy(back.data(), d, n * sizeof(double));
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(back[i], host[i] * 2.0 + 1.0) << i;
  }
  q.free(d);
}

TEST_P(SyclAllRoutes, Reduction) {
  queue q(GetParam().vendor, GetParam().impl);
  constexpr std::size_t n = 10001;
  double* d = q.malloc_device<double>(n);
  std::vector<double> host(n, 1.0);
  q.memcpy(d, host.data(), n * sizeof(double));
  const double sum = q.reduce(
      range{n}, 0.0, gpusim::KernelCosts{},
      [d](std::size_t i) { return d[i]; },
      [](double a, double b) { return a + b; });
  EXPECT_DOUBLE_EQ(sum, static_cast<double>(n));
  q.free(d);
}

// Static storage zero-fills the padding between the two enum members, and
// gtest prints the parameter's raw bytes into each test's name, so a
// table keeps the names the same from build to build.
constexpr Combo kSyclRoutes[] = {
    {Vendor::Intel, Implementation::DPCpp},
    {Vendor::NVIDIA, Implementation::DPCpp},
    {Vendor::AMD, Implementation::DPCpp},
    {Vendor::Intel, Implementation::OpenSYCL},
    {Vendor::NVIDIA, Implementation::OpenSYCL},
    {Vendor::AMD, Implementation::OpenSYCL},
};

INSTANTIATE_TEST_SUITE_P(
    Figure1SyclColumn, SyclAllRoutes,
    ::testing::ValuesIn(kSyclRoutes),
    [](const ::testing::TestParamInfo<Combo>& info) {
      return std::string(to_string(info.param.vendor)) + "_" +
             (info.param.impl == Implementation::DPCpp ? "DPCpp"
                                                       : "OpenSYCL");
    });

TEST(Syclx, ComputeCppIsRetiredEverywhere) {
  for (const Vendor v : kAllVendors) {
    EXPECT_THROW((void)queue(v, Implementation::ComputeCpp),
                 UnsupportedCombination)
        << to_string(v);
  }
}

TEST(Syclx, DpcppIsNativeOnIntelOnly) {
  const queue intel(Vendor::Intel, Implementation::DPCpp);
  EXPECT_DOUBLE_EQ(intel.backend_profile().bandwidth_efficiency, 1.0);
  const queue nvidia(Vendor::NVIDIA, Implementation::DPCpp);
  EXPECT_LT(nvidia.backend_profile().bandwidth_efficiency, 1.0);
  const queue amd(Vendor::AMD, Implementation::DPCpp);
  EXPECT_LT(amd.backend_profile().bandwidth_efficiency, 1.0);
}

TEST(Syclx, UsmMemcpyInfersDirections) {
  queue q(Vendor::Intel, Implementation::DPCpp);
  constexpr std::size_t n = 64;
  int* a = q.malloc_device<int>(n);
  int* b = q.malloc_device<int>(n);
  std::vector<int> host(n, 7);
  q.memcpy(a, host.data(), n * sizeof(int));     // H2D
  q.memcpy(b, a, n * sizeof(int));               // D2D
  std::vector<int> back(n, 0);
  q.memcpy(back.data(), b, n * sizeof(int));     // D2H
  EXPECT_EQ(back, host);
  std::vector<int> host2(n, 0);
  q.memcpy(host2.data(), host.data(), n * sizeof(int));  // H2H
  EXPECT_EQ(host2, host);
  q.free(a);
  q.free(b);
}

TEST(Syclx, EventsReportSimulatedDurations) {
  queue q(Vendor::Intel, Implementation::DPCpp);
  gpusim::KernelCosts costs;
  costs.bytes_read = 1e8;
  const event e = q.parallel_for(range{1024}, costs, [](id) {});
  EXPECT_GT(e.duration_us(), 0.0);
  EXPECT_GT(q.simulated_time_us(), 0.0);
}

TEST(Syclx, ReduceHandlesEmptyAndSingleElementRanges) {
  queue q(Vendor::Intel, Implementation::DPCpp);
  double* d = q.malloc_device<double>(1);
  const double v = 42.0;
  q.memcpy(d, &v, sizeof(double));
  EXPECT_DOUBLE_EQ(q.reduce(
                       range{0}, 0.0, gpusim::KernelCosts{},
                       [d](std::size_t i) { return d[i]; },
                       [](double a, double b) { return a + b; }),
                   0.0);
  EXPECT_DOUBLE_EQ(q.reduce(
                       range{1}, 0.0, gpusim::KernelCosts{},
                       [d](std::size_t i) { return d[i]; },
                       [](double a, double b) { return a + b; }),
                   42.0);
  q.free(d);
}

TEST(Syclx, MaxReduction) {
  queue q(Vendor::AMD, Implementation::OpenSYCL);
  constexpr std::size_t n = 5000;
  std::vector<double> host(n);
  mcmm::testing::rng r(0x57c1u);
  for (std::size_t i = 0; i < n; ++i) {
    host[i] = static_cast<double>(r.below(1000));  // all below the max
  }
  host[1234] = 5000.0;
  double* d = q.malloc_device<double>(n);
  q.memcpy(d, host.data(), n * sizeof(double));
  const double mx = q.reduce(
      range{n}, -1e300, gpusim::KernelCosts{},
      [d](std::size_t i) { return d[i]; },
      [](double a, double b) { return a > b ? a : b; });
  EXPECT_DOUBLE_EQ(mx, 5000.0);
  q.free(d);
}

TEST(Syclx, ImplementationNames) {
  EXPECT_EQ(to_string(Implementation::DPCpp), "DPC++");
  EXPECT_EQ(to_string(Implementation::OpenSYCL), "Open SYCL");
  EXPECT_EQ(to_string(Implementation::ComputeCpp), "ComputeCpp");
}

}  // namespace
}  // namespace mcmm::syclx
