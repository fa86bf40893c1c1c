#include "models/stdparx/stdparx.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "support/rng.hpp"

namespace mcmm::stdparx {
namespace {

/// RAII guard for the roc-stdpar opt-in flag.
class RocGuard {
 public:
  explicit RocGuard(bool enable) : saved_(roc_stdpar_enabled()) {
    enable_experimental_roc_stdpar(enable);
  }
  ~RocGuard() { enable_experimental_roc_stdpar(saved_); }

 private:
  bool saved_;
};

TEST(Stdparx, NvhpcTargetsNvidiaOnly) {
  EXPECT_NO_THROW(par_gpu(Vendor::NVIDIA, Runtime::NVHPC));
  EXPECT_THROW(par_gpu(Vendor::AMD, Runtime::NVHPC), UnsupportedCombination);
  EXPECT_THROW(par_gpu(Vendor::Intel, Runtime::NVHPC),
               UnsupportedCombination);
}

TEST(Stdparx, RocStdparRequiresOptIn) {
  {
    const RocGuard guard(false);
    // Item 26: AMD does not yet provide production-grade pSTL support.
    EXPECT_THROW(par_gpu(Vendor::AMD, Runtime::RocStdpar),
                 UnsupportedCombination);
  }
  {
    const RocGuard guard(true);
    EXPECT_NO_THROW(par_gpu(Vendor::AMD, Runtime::RocStdpar));
  }
}

TEST(Stdparx, RocStdparIsAmdOnly) {
  const RocGuard guard(true);
  EXPECT_THROW(par_gpu(Vendor::NVIDIA, Runtime::RocStdpar),
               UnsupportedCombination);
  EXPECT_THROW(par_gpu(Vendor::Intel, Runtime::RocStdpar),
               UnsupportedCombination);
}

TEST(Stdparx, OneDplIsCustomNamespace) {
  // Item 40 / Sec. 5: Intel's pSTL lives in oneapi::dpl::, the reason the
  // cell is 'some support' rather than full.
  const execution_policy pol = par_gpu(Vendor::Intel, Runtime::OneDPL);
  EXPECT_TRUE(pol.custom_namespace());
  const execution_policy nv = par_gpu(Vendor::NVIDIA, Runtime::NVHPC);
  EXPECT_FALSE(nv.custom_namespace());
}

TEST(Stdparx, OpenSyclReachesAllVendors) {
  for (const Vendor v : kAllVendors) {
    EXPECT_NO_THROW(par_gpu(v, Runtime::OpenSYCL)) << to_string(v);
  }
}

struct Route {
  Vendor vendor;
  Runtime runtime;
};

// Static storage zero-fills the padding between the two enum members, and
// gtest prints the parameter's raw bytes into each test's name, so a
// table keeps the names the same from build to build.
constexpr Route kWorkingRoutes[] = {
    {Vendor::NVIDIA, Runtime::NVHPC},   {Vendor::Intel, Runtime::OneDPL},
    {Vendor::NVIDIA, Runtime::OneDPL},  {Vendor::AMD, Runtime::OneDPL},
    {Vendor::NVIDIA, Runtime::OpenSYCL}, {Vendor::AMD, Runtime::OpenSYCL},
    {Vendor::Intel, Runtime::OpenSYCL},
};

class StdparRoutes : public ::testing::TestWithParam<Route> {};

TEST_P(StdparRoutes, TransformReduceAndFill) {
  const execution_policy pol =
      par_gpu(GetParam().vendor, GetParam().runtime);
  constexpr std::size_t n = 4096;
  device_vector<double> a(pol, n);
  device_vector<double> b(pol, n);
  device_vector<double> c(pol, n);

  fill(pol, a.begin(), a.end(), 2.0);
  fill(pol, b.begin(), b.end(), 0.5);
  transform(pol, a.begin(), a.end(), b.begin(), c.begin(),
            [](double x, double y) { return x * y; });
  const double dot =
      transform_reduce(pol, c.begin(), c.end(), a.begin(), 0.0);
  // c[i] = 1.0, a[i] = 2.0 -> dot = 2n.
  EXPECT_DOUBLE_EQ(dot, 2.0 * n);
}

TEST_P(StdparRoutes, ForEachMutatesInPlace) {
  const execution_policy pol =
      par_gpu(GetParam().vendor, GetParam().runtime);
  constexpr std::size_t n = 1000;
  device_vector<int> v(pol, n);
  fill(pol, v.begin(), v.end(), 1);
  for_each(pol, v.begin(), v.end(), [](int& x) { x += 41; });
  std::vector<int> host(n);
  v.download(host.data(), n);
  for (const int x : host) ASSERT_EQ(x, 42);
}

INSTANTIATE_TEST_SUITE_P(
    Figure1StandardColumn, StdparRoutes,
    ::testing::ValuesIn(kWorkingRoutes),
    [](const ::testing::TestParamInfo<Route>& info) {
      std::string name = std::string(to_string(info.param.vendor)) + "_" +
                         std::string(to_string(info.param.runtime));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(Stdparx, ReduceSumAndCustomOp) {
  const execution_policy pol = par_gpu(Vendor::NVIDIA, Runtime::NVHPC);
  constexpr std::size_t n = 10000;
  std::vector<double> host(n);
  std::iota(host.begin(), host.end(), 1.0);
  device_vector<double> d(pol, n);
  d.upload(host.data(), n);
  EXPECT_DOUBLE_EQ(reduce(pol, d.begin(), d.end(), 0.0),
                   static_cast<double>(n) * (n + 1) / 2);
  const double mx =
      reduce(pol, d.begin(), d.end(), 0.0,
             [](double a, double b) { return a > b ? a : b; });
  EXPECT_DOUBLE_EQ(mx, static_cast<double>(n));
}

TEST(Stdparx, CopyIsDeviceToDevice) {
  const execution_policy pol = par_gpu(Vendor::Intel, Runtime::OneDPL);
  constexpr std::size_t n = 512;
  device_vector<int> a(pol, n);
  device_vector<int> b(pol, n);
  fill(pol, a.begin(), a.end(), 7);
  copy(pol, a.begin(), a.end(), b.begin());
  std::vector<int> host(n);
  b.download(host.data(), n);
  for (const int x : host) ASSERT_EQ(x, 7);
}

TEST(Stdparx, SortOrdersDeviceArray) {
  const execution_policy pol = par_gpu(Vendor::NVIDIA, Runtime::NVHPC);
  constexpr std::size_t n = 2048;
  std::vector<int> host(n);
  mcmm::testing::rng r(7919);
  for (std::size_t i = 0; i < n; ++i) {
    host[i] = static_cast<int>(r.below(10007));
  }
  device_vector<int> d(pol, n);
  d.upload(host.data(), n);
  sort(pol, d.begin(), d.end());
  std::vector<int> back(n);
  d.download(back.data(), n);
  std::sort(host.begin(), host.end());
  EXPECT_EQ(back, host);
}

TEST(Stdparx, UnaryTransform) {
  const execution_policy pol = par_gpu(Vendor::AMD, Runtime::OpenSYCL);
  constexpr std::size_t n = 333;
  device_vector<double> in(pol, n);
  device_vector<double> out(pol, n);
  fill(pol, in.begin(), in.end(), 3.0);
  transform(pol, in.begin(), in.end(), out.begin(),
            [](double x) { return x * x; });
  std::vector<double> host(n);
  out.download(host.data(), n);
  for (const double x : host) ASSERT_DOUBLE_EQ(x, 9.0);
}

TEST(Stdparx, ExperimentalRoutesAreSlower) {
  const execution_policy native = par_gpu(Vendor::NVIDIA, Runtime::NVHPC);
  const execution_policy exp = par_gpu(Vendor::NVIDIA, Runtime::OpenSYCL);
  EXPECT_GT(native.queue().backend_profile().bandwidth_efficiency,
            exp.queue().backend_profile().bandwidth_efficiency);
}

TEST(Stdparx, MovedFromVectorIsSafe) {
  const execution_policy pol = par_gpu(Vendor::NVIDIA, Runtime::NVHPC);
  device_vector<int> a(pol, 16);
  device_vector<int> b = std::move(a);
  EXPECT_EQ(b.size(), 16u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): documented
}

}  // namespace
}  // namespace mcmm::stdparx
