// Conformance: the *executable* support matrix of the model embeddings must
// agree with the paper dataset (Fig. 1), column by column: the C++ cell of
// every model, and the Python cell of each vendor through pybindx. This is
// the central integration test tying the knowledge base to the simulated
// ecosystem.

#include <gtest/gtest.h>

#include "data/dataset.hpp"
#include "models/accx/accx.hpp"
#include "models/alpakax/alpakax.hpp"
#include "models/cudax/cudax.hpp"
#include "models/hipx/hipx.hpp"
#include "models/kokkosx/kokkosx.hpp"
#include "models/ompx/ompx.hpp"
#include "models/pybindx/pybindx.hpp"
#include "models/stdparx/stdparx.hpp"
#include "models/syclx/syclx.hpp"

namespace mcmm {
namespace {

const CompatibilityMatrix& matrix() { return data::paper_matrix(); }

/// The Fig. 1 cell the embedding answers for: Python's own language for
/// the Python model, C++ for every other.
[[nodiscard]] SupportCategory category(Vendor v, Model m) {
  const Language lang = m == Model::Python ? Language::Python : Language::Cpp;
  return matrix().at(v, m, lang).best_category();
}

/// Does the embedding offer *any* executable route for (model, vendor)?
[[nodiscard]] bool embedding_runs(Model m, Vendor v) {
  switch (m) {
    case Model::CUDA:
      // cudax is the CUDA toolkit: NVIDIA only. The CUDA-on-AMD /
      // CUDA-on-Intel cells are translator routes, covered by
      // mcmm::translate (HIPIFY / SYCLomatic pipelines), not by a runtime.
      return v == Vendor::NVIDIA;
    case Model::HIP:
      // hipx implements the amd and nvidia platforms natively, plus the
      // chipStar route to Intel behind its experimental opt-in gate
      // (item 33, 'limited support').
      if (v == Vendor::Intel) {
        hipx::enable_experimental_chipstar(true);
        hipx::set_platform(hipx::Platform::intel_chipstar);
        void* p = nullptr;
        const bool ok =
            hipx::hipMalloc(&p, 16) == hipx::hipError_t::hipSuccess;
        if (ok) (void)hipx::hipFree(p);
        hipx::set_platform(hipx::Platform::amd);
        hipx::enable_experimental_chipstar(false);
        return ok;
      }
      return v == Vendor::AMD || v == Vendor::NVIDIA;
    case Model::SYCL:
      for (const auto impl :
           {syclx::Implementation::DPCpp, syclx::Implementation::OpenSYCL}) {
        try {
          const syclx::queue q(v, impl);
          return true;
        } catch (const UnsupportedCombination&) {
        }
      }
      return false;
    case Model::OpenACC: {
      for (const auto c : {accx::Compiler::NVHPC, accx::Compiler::GCC,
                           accx::Compiler::Clacc, accx::Compiler::Cray}) {
        if (accx::compiler_targets(c, v)) return true;
      }
      return false;
    }
    case Model::OpenMP: {
      for (const auto c :
           {ompx::Compiler::NVHPC, ompx::Compiler::GCC, ompx::Compiler::Clang,
            ompx::Compiler::Cray, ompx::Compiler::AOMP,
            ompx::Compiler::ICPX}) {
        if (ompx::compiler_info(c).targets.contains(v)) return true;
      }
      return false;
    }
    case Model::Standard: {
      stdparx::enable_experimental_roc_stdpar(true);
      bool any = false;
      for (const auto r :
           {stdparx::Runtime::NVHPC, stdparx::Runtime::OneDPL,
            stdparx::Runtime::RocStdpar, stdparx::Runtime::OpenSYCL}) {
        try {
          (void)stdparx::par_gpu(v, r);
          any = true;
        } catch (const UnsupportedCombination&) {
        }
      }
      stdparx::enable_experimental_roc_stdpar(false);
      return any;
    }
    case Model::Kokkos: {
      for (const auto s :
           {kokkosx::ExecSpace::Cuda, kokkosx::ExecSpace::HIP,
            kokkosx::ExecSpace::SYCL, kokkosx::ExecSpace::OpenMPTarget}) {
        if (kokkosx::exec_space_targets(s, v)) return true;
      }
      return false;
    }
    case Model::Alpaka:
      // Tags exist for all three vendors (Intel experimentally), plus the
      // OpenMP fallback.
      return true;
    case Model::Python:
      // pybindx: one Package per route Fig. 1's Python row names.
      for (const auto p :
           {pybindx::Package::CudaPython, pybindx::Package::CuPy,
            pybindx::Package::Numba, pybindx::Package::CuNumeric,
            pybindx::Package::CuPyROCm, pybindx::Package::PyHIP,
            pybindx::Package::Dpnp, pybindx::Package::NumbaDpex}) {
        if (pybindx::package_vendor(p) == v) return true;
      }
      return false;
  }
  return false;
}

class ConformanceTest
    : public ::testing::TestWithParam<std::tuple<Vendor, Model>> {};

TEST_P(ConformanceTest, EmbeddingAvailabilityMatchesFigure1) {
  const auto [vendor, model] = GetParam();
  const SupportCategory cat = category(vendor, model);
  const bool runs = embedding_runs(model, vendor);

  // Documented exceptions: cells whose only routes are one-shot source
  // translators or young research runtimes are modelled in
  // mcmm::translate, not as runtime embeddings.
  const bool translator_only_cell =
      (model == Model::CUDA && vendor != Vendor::NVIDIA) ||
      (model == Model::OpenACC && vendor == Vendor::Intel);

  if (translator_only_cell) {
    EXPECT_LE(score(cat), score(SupportCategory::IndirectGood))
        << "translator-only cell should not be 'full'";
    return;
  }
  EXPECT_EQ(runs, usable(cat))
      << to_string(Combination{
             vendor, model,
             model == Model::Python ? Language::Python : Language::Cpp})
      << " rated " << category_name(cat);
}

INSTANTIATE_TEST_SUITE_P(
    Figure1CppColumns, ConformanceTest,
    ::testing::Combine(::testing::ValuesIn(kAllVendors),
                       ::testing::ValuesIn(kAllModels)),
    [](const ::testing::TestParamInfo<std::tuple<Vendor, Model>>& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_" +
             std::string(to_string(std::get<1>(info.param)));
    });

TEST(Conformance, ExperimentalEmbeddingsMatchLimitedCells) {
  // Kokkos and Alpaka on Intel are 'limited' in Fig. 1 and experimental in
  // the embeddings.
  EXPECT_EQ(category(Vendor::Intel, Model::Kokkos),
            SupportCategory::Limited);
  kokkosx::Execution kokkos(kokkosx::ExecSpace::SYCL, Vendor::Intel);
  EXPECT_TRUE(kokkos.experimental());

  EXPECT_EQ(category(Vendor::Intel, Model::Alpaka),
            SupportCategory::Limited);
  static_assert(alpakax::AccGpuSyclIntel::experimental);
}

TEST(Conformance, StdparGateMatchesAmdCell) {
  // Fig. 1: AMD Standard C++ is 'limited' — roc-stdpar exists but is not
  // production. The embedding expresses this as an opt-in gate.
  EXPECT_EQ(category(Vendor::AMD, Model::Standard),
            SupportCategory::Limited);
  stdparx::enable_experimental_roc_stdpar(false);
  EXPECT_THROW((void)stdparx::par_gpu(Vendor::AMD, stdparx::Runtime::RocStdpar),
               UnsupportedCombination);
}

TEST(Conformance, NativeModelsAreFullAndRunNatively) {
  struct NativePair {
    Vendor vendor;
    Model model;
  };
  for (const NativePair p : {NativePair{Vendor::NVIDIA, Model::CUDA},
                             NativePair{Vendor::AMD, Model::HIP},
                             NativePair{Vendor::Intel, Model::SYCL}}) {
    EXPECT_EQ(category(p.vendor, p.model), SupportCategory::Full)
        << to_string(p.vendor);
    EXPECT_TRUE(embedding_runs(p.model, p.vendor));
  }
}

TEST(Conformance, UnsupportedCombinationCarriesTheRightCell) {
  try {
    accx::Accelerator acc(Vendor::Intel, accx::Compiler::NVHPC);
    FAIL();
  } catch (const UnsupportedCombination& e) {
    const SupportEntry* cell = matrix().find(e.combo());
    ASSERT_NE(cell, nullptr);
    EXPECT_LE(score(cell->best_category()),
              score(SupportCategory::Limited));
  }
}

}  // namespace
}  // namespace mcmm
