#include "models/ompx/ompx.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace mcmm::ompx {
namespace {

TEST(Ompx, CompilerVendorMatrix) {
  // The paper's compiler/vendor coverage (items 9, 24, 38).
  EXPECT_TRUE(compiler_info(Compiler::NVHPC).targets ==
              std::set<Vendor>{Vendor::NVIDIA});
  EXPECT_TRUE((compiler_info(Compiler::GCC).targets ==
               std::set<Vendor>{Vendor::NVIDIA, Vendor::AMD}));
  EXPECT_TRUE((compiler_info(Compiler::AOMP).targets ==
               std::set<Vendor>{Vendor::NVIDIA, Vendor::AMD}));
  EXPECT_TRUE(compiler_info(Compiler::ICPX).targets ==
              std::set<Vendor>{Vendor::Intel});
}

TEST(Ompx, UnsupportedVendorThrows) {
  EXPECT_THROW(TargetDevice(Vendor::AMD, Compiler::NVHPC),
               UnsupportedCombination);
  EXPECT_THROW(TargetDevice(Vendor::Intel, Compiler::NVHPC),
               UnsupportedCombination);
  EXPECT_THROW(TargetDevice(Vendor::NVIDIA, Compiler::ICPX),
               UnsupportedCombination);
  EXPECT_THROW(TargetDevice(Vendor::Intel, Compiler::GCC),
               UnsupportedCombination);
  EXPECT_THROW(TargetDevice(Vendor::Intel, Compiler::AOMP),
               UnsupportedCombination);
}

TEST(Ompx, EveryVendorHasAtLeastOneCompiler) {
  // Fig. 1: OpenMP C++ is usable on all three platforms.
  for (const Vendor v : kAllVendors) {
    bool any = false;
    for (const Compiler c : {Compiler::NVHPC, Compiler::GCC, Compiler::Clang,
                             Compiler::Cray, Compiler::AOMP, Compiler::ICPX}) {
      if (compiler_info(c).targets.contains(v)) any = true;
    }
    EXPECT_TRUE(any) << to_string(v);
  }
}

TEST(Ompx, FeatureSubsetsDifferAcrossCompilers) {
  // NVHPC implements only a subset of 5.0: no unified shared memory, no
  // declare mapper, no metadirective.
  TargetDevice nvhpc(Vendor::NVIDIA, Compiler::NVHPC);
  EXPECT_TRUE(nvhpc.has(Feature::TargetOffload));
  EXPECT_FALSE(nvhpc.has(Feature::UnifiedSharedMemory));
  EXPECT_FALSE(nvhpc.has(Feature::DeclareMapper));
  EXPECT_THROW(nvhpc.require(Feature::Metadirective), UnsupportedFeature);

  // GCC is complete 4.5 but has no 5.0 features yet.
  TargetDevice gcc(Vendor::AMD, Compiler::GCC);
  EXPECT_TRUE(gcc.has(Feature::TeamsReduction));
  EXPECT_FALSE(gcc.has(Feature::LoopDirective));

  // ICPX carries most 5.0/5.1.
  TargetDevice icpx(Vendor::Intel, Compiler::ICPX);
  EXPECT_TRUE(icpx.has(Feature::UnifiedSharedMemory));
  EXPECT_TRUE(icpx.has(Feature::DeclareMapper));
  EXPECT_FALSE(icpx.has(Feature::Metadirective));
}

TEST(Ompx, UnsupportedFeatureErrorNamesTheCompiler) {
  TargetDevice nvhpc(Vendor::NVIDIA, Compiler::NVHPC);
  try {
    nvhpc.require(Feature::DeclareMapper);
    FAIL() << "expected UnsupportedFeature";
  } catch (const UnsupportedFeature& e) {
    EXPECT_NE(std::string(e.what()).find("NVHPC"), std::string::npos);
    EXPECT_EQ(e.feature(), "declare mapper");
  }
}

struct VendorCompiler {
  Vendor vendor;
  Compiler compiler;
};

class OmpxOffload : public ::testing::TestWithParam<VendorCompiler> {};

TEST_P(OmpxOffload, MapAndComputeVectorAdd) {
  TargetDevice dev(GetParam().vendor, GetParam().compiler);
  constexpr std::size_t n = 3000;
  std::vector<double> a(n, 2.0), b(n, 3.0), c(n, 0.0);
  {
    target_data data(dev);
    const double* da = data.map_to(a.data(), n);
    const double* db = data.map_to(b.data(), n);
    double* dc = data.map_from(c.data(), n);
    target_teams_distribute_parallel_for(
        dev, n, gpusim::KernelCosts{},
        [da, db, dc](std::size_t i) { dc[i] = da[i] + db[i]; });
  }  // region end copies c back
  for (const double v : c) ASSERT_DOUBLE_EQ(v, 5.0);
}

TEST_P(OmpxOffload, ReductionClause) {
  TargetDevice dev(GetParam().vendor, GetParam().compiler);
  constexpr std::size_t n = 12345;
  std::vector<double> a(n);
  std::iota(a.begin(), a.end(), 1.0);
  target_data data(dev);
  const double* da = data.map_to(a.data(), n);
  const double sum = target_teams_reduce(
      dev, n, 0.0, gpusim::KernelCosts{},
      [da](std::size_t i) { return da[i]; });
  EXPECT_DOUBLE_EQ(sum, static_cast<double>(n) * (n + 1) / 2);
}

// Static storage zero-fills the padding between the two enum members, and
// gtest prints the parameter's raw bytes into each test's name, so a
// table keeps the names the same from build to build.
constexpr VendorCompiler kOmpRoutes[] = {
    {Vendor::NVIDIA, Compiler::NVHPC},
    {Vendor::NVIDIA, Compiler::GCC},
    {Vendor::NVIDIA, Compiler::Clang},
    {Vendor::NVIDIA, Compiler::Cray},
    {Vendor::NVIDIA, Compiler::AOMP},
    {Vendor::AMD, Compiler::AOMP},
    {Vendor::AMD, Compiler::GCC},
    {Vendor::AMD, Compiler::Clang},
    {Vendor::AMD, Compiler::Cray},
    {Vendor::Intel, Compiler::ICPX},
};

INSTANTIATE_TEST_SUITE_P(
    AllRoutes, OmpxOffload,
    ::testing::ValuesIn(kOmpRoutes),
    [](const ::testing::TestParamInfo<VendorCompiler>& info) {
      return std::string(to_string(info.param.vendor)) + "_" +
             std::string(to_string(info.param.compiler));
    });

TEST(Ompx, TofromMappingCopiesBothWays) {
  TargetDevice dev(Vendor::Intel, Compiler::ICPX);
  constexpr std::size_t n = 100;
  std::vector<int> x(n, 1);
  {
    target_data data(dev);
    int* dx = data.map_tofrom(x.data(), n);
    target_teams_distribute_parallel_for(
        dev, n, gpusim::KernelCosts{}, [dx](std::size_t i) { dx[i] += 41; });
  }
  for (const int v : x) EXPECT_EQ(v, 42);
}

TEST(Ompx, MapToDoesNotCopyBack) {
  TargetDevice dev(Vendor::NVIDIA, Compiler::NVHPC);
  std::vector<int> x(16, 7);
  {
    target_data data(dev);
    int* dx = data.map_to(x.data(), 16);
    target_teams_distribute_parallel_for(
        dev, 16, gpusim::KernelCosts{}, [dx](std::size_t i) { dx[i] = 0; });
  }
  for (const int v : x) EXPECT_EQ(v, 7);
}

TEST(Ompx, TargetUpdateRefreshesMidRegion) {
  TargetDevice dev(Vendor::NVIDIA, Compiler::NVHPC);  // has TargetUpdate
  std::vector<int> x(8, 1);
  target_data data(dev);
  int* dx = data.map_to(x.data(), 8);
  target_teams_distribute_parallel_for(
      dev, 8, gpusim::KernelCosts{}, [dx](std::size_t i) { dx[i] = 9; });
  data.update_from(x.data());
  for (const int v : x) EXPECT_EQ(v, 9);
  // Host change pushed back down.
  x[0] = 100;
  data.update_to(x.data());
  const int sum = target_teams_reduce(
      dev, 8, 0, gpusim::KernelCosts{},
      [dx](std::size_t i) { return dx[i]; });
  EXPECT_EQ(sum, 100 + 7 * 9);
}

TEST(Ompx, UpdateOnUnmappedPointerThrows) {
  TargetDevice dev(Vendor::NVIDIA, Compiler::NVHPC);
  target_data data(dev);
  int x = 0;
  EXPECT_THROW(data.update_from(&x), gpusim::InvalidPointer);
  EXPECT_THROW(data.update_to(&x), gpusim::InvalidPointer);
  EXPECT_THROW((void)data.device_ptr(&x), gpusim::InvalidPointer);
}

TEST(Ompx, DoubleMappingThrows) {
  TargetDevice dev(Vendor::NVIDIA, Compiler::NVHPC);
  target_data data(dev);
  std::vector<int> x(4);
  (void)data.map_to(x.data(), 4);
  EXPECT_THROW((void)data.map_to(x.data(), 4), gpusim::InvalidPointer);
}

TEST(Ompx, Collapse2IteratesFullSpace) {
  TargetDevice dev(Vendor::Intel, Compiler::ICPX);
  constexpr std::size_t n = 37, m = 23;
  std::vector<int> grid(n * m, 0);
  {
    target_data data(dev);
    int* dg = data.map_tofrom(grid.data(), n * m);
    target_teams_distribute_parallel_for_collapse2(
        dev, n, m, gpusim::KernelCosts{},
        [dg](std::size_t i, std::size_t j) { dg[i * m + j] += 1; });
  }
  for (const int v : grid) EXPECT_EQ(v, 1);
}

TEST(Ompx, MetadirectiveDispatchesToDeviceWhereSupported) {
  // Clang and Cray implement metadirective (5.0); NVHPC does not.
  ompx::TargetDevice clang(Vendor::NVIDIA, ompx::Compiler::Clang);
  std::vector<int> x(16, 0);
  {
    ompx::target_data data(clang);
    int* dx = data.map_tofrom(x.data(), 16);
    const bool on_device = ompx::metadirective_target_or_host(
        clang, 16, gpusim::KernelCosts{},
        [dx](std::size_t i) { dx[i] = 2; });
    EXPECT_TRUE(on_device);
  }
  for (const int v : x) EXPECT_EQ(v, 2);

  ompx::TargetDevice nvhpc(Vendor::NVIDIA, ompx::Compiler::NVHPC);
  EXPECT_THROW((void)ompx::metadirective_target_or_host(
                   nvhpc, 16, gpusim::KernelCosts{}, [](std::size_t) {}),
               UnsupportedFeature);
}

TEST(Ompx, DevicePtrLookup) {
  TargetDevice dev(Vendor::AMD, Compiler::AOMP);
  target_data data(dev);
  std::vector<double> x(10);
  double* dx = data.map_to(x.data(), 10);
  EXPECT_EQ(data.device_ptr(x.data()), dx);
}

}  // namespace
}  // namespace mcmm::ompx
