// Data-quality tests: the Sec. 4 descriptions must actually describe the
// routes their cells record — catching dataset drift between the prose
// and the structured route tables.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <ostream>

#include "data/dataset.hpp"

namespace mcmm {
namespace {

using data::paper_matrix;

[[nodiscard]] std::string lowered(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

[[nodiscard]] bool mentions(const Description& d, const std::string& term) {
  return lowered(d.text).find(lowered(term)) != std::string::npos ||
         lowered(d.title).find(lowered(term)) != std::string::npos;
}

struct KeyRoute {
  int description_id;
  const char* term;
};

// Without it gtest prints the raw bytes, pointer included, so the listed
// test names would change from run to run.
void PrintTo(const KeyRoute& route, std::ostream* os) {
  *os << 'd' << route.description_id << " \"" << route.term << '"';
}

class DescriptionMentionsTest : public ::testing::TestWithParam<KeyRoute> {};

TEST_P(DescriptionMentionsTest, TextNamesTheRoute) {
  const Description& d =
      paper_matrix().description(GetParam().description_id);
  EXPECT_TRUE(mentions(d, GetParam().term))
      << "description " << d.id << " ('" << d.title
      << "') does not mention '" << GetParam().term << "'";
}

INSTANTIATE_TEST_SUITE_P(
    KeyRoutes, DescriptionMentionsTest,
    ::testing::Values(
        KeyRoute{1, "CUDA Toolkit"}, KeyRoute{1, "PTX"},
        KeyRoute{2, "nvfortran"}, KeyRoute{2, "cuf kernels"},
        KeyRoute{3, "hipMalloc"}, KeyRoute{3, "HIP_PLATFORM"},
        KeyRoute{4, "hipfort"}, KeyRoute{5, "DPC++"},
        KeyRoute{5, "Open SYCL"}, KeyRoute{5, "SYCLomatic"},
        KeyRoute{7, "nvc"}, KeyRoute{7, "Clacc"}, KeyRoute{7, "-fopenacc"},
        KeyRoute{8, "Flacc"}, KeyRoute{9, "-mp"}, KeyRoute{9, "AOMP"},
        KeyRoute{11, "-stdpar"}, KeyRoute{12, "do concurrent"},
        KeyRoute{13, "nvcc"}, KeyRoute{14, "FLCL"},
        KeyRoute{17, "CuPy"}, KeyRoute{17, "Numba"},
        KeyRoute{18, "HIPIFY"}, KeyRoute{19, "GPUFORT"},
        KeyRoute{20, "hipcc"}, KeyRoute{20, "ROCm"},
        KeyRoute{21, "Open SYCL"}, KeyRoute{22, "Clacc"},
        KeyRoute{23, "gfortran"}, KeyRoute{24, "AOMP"},
        KeyRoute{26, "roc-stdpar"}, KeyRoute{28, "HIP"},
        KeyRoute{30, "PyHIP"}, KeyRoute{31, "SYCLomatic"},
        KeyRoute{31, "chipStar"}, KeyRoute{31, "ZLUDA"},
        KeyRoute{33, "chipStar"}, KeyRoute{33, "Level Zero"},
        KeyRoute{35, "DPC++"}, KeyRoute{35, "oneAPI"},
        KeyRoute{36, "Migration Tool"}, KeyRoute{38, "-qopenmp"},
        KeyRoute{39, "ifx"}, KeyRoute{40, "oneapi::dpl"},
        KeyRoute{41, "do concurrent"}, KeyRoute{42, "SYCL"},
        KeyRoute{43, "v0.9.0"}, KeyRoute{44, "dpctl"},
        KeyRoute{44, "dpnp"}),
    [](const ::testing::TestParamInfo<KeyRoute>& info) {
      std::string name = "d";
      name += std::to_string(info.param.description_id);
      name += '_';
      name += info.param.term;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(DescriptionQuality, RouteToolchainsAppearInRouteTables) {
  // Spot-invariant: every compiler route's toolchain string is non-trivial
  // and route names are unique within a cell.
  for (const SupportEntry* e : paper_matrix().entries()) {
    std::set<std::string> names;
    for (const Route& r : e->routes) {
      EXPECT_TRUE(names.insert(r.name).second)
          << "duplicate route name '" << r.name << "' in "
          << to_string(e->combo);
      if (r.kind == RouteKind::Compiler) {
        EXPECT_GE(r.toolchain.size(), 2u) << r.name;
      }
    }
  }
}

TEST(DescriptionQuality, EnvironmentVariablesAreWellFormed) {
  for (const SupportEntry* e : paper_matrix().entries()) {
    for (const Route& r : e->routes) {
      for (const std::string& env : r.environment) {
        EXPECT_NE(env.find('='), std::string::npos)
            << "env entry '" << env << "' of route " << r.name
            << " is not NAME=VALUE";
      }
    }
  }
}

TEST(DescriptionQuality, FlagsLookLikeFlags) {
  for (const SupportEntry* e : paper_matrix().entries()) {
    for (const Route& r : e->routes) {
      for (const std::string& flag : r.flags) {
        EXPECT_EQ(flag.front(), '-')
            << "flag '" << flag << "' of route " << r.name;
      }
    }
  }
}

TEST(DescriptionQuality, SharedDescriptionsHaveMultiPlatformTitles) {
  const CompatibilityMatrix& m = paper_matrix();
  for (const int id : {6, 14, 16}) {
    const Description& d = m.description(id);
    EXPECT_NE(d.title.find("NVIDIA, AMD, Intel"), std::string::npos)
        << "description " << id;
  }
  EXPECT_NE(m.description(4).title.find("NVIDIA, AMD"), std::string::npos);
}

}  // namespace
}  // namespace mcmm
