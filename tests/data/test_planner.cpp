// Route-planner scenarios: the "guide for scientific programmers" in action.

#include "core/planner.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "data/dataset.hpp"

namespace mcmm {
namespace {

const RoutePlanner& planner() {
  static const RoutePlanner p(data::paper_matrix());
  return p;
}

bool recommends(const std::vector<PlannedRoute>& plans, Model m) {
  return std::any_of(plans.begin(), plans.end(),
                     [m](const PlannedRoute& p) { return p.model == m; });
}

TEST(Planner, FortranOnAllThreePlatformsMeansOpenMP) {
  PlannerQuery q;
  q.language = Language::Fortran;
  q.must_run_on = {Vendor::AMD, Vendor::Intel, Vendor::NVIDIA};
  q.minimum_category = SupportCategory::Some;
  q.require_vendor_support = true;
  const auto plans = planner().plan(q);
  ASSERT_FALSE(plans.empty());
  EXPECT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].model, Model::OpenMP);
}

TEST(Planner, CppOnAllThreePlatformsHasMultipleOptions) {
  PlannerQuery q;
  q.language = Language::Cpp;
  q.must_run_on = {Vendor::AMD, Vendor::Intel, Vendor::NVIDIA};
  q.minimum_category = SupportCategory::Limited;
  const auto plans = planner().plan(q);
  EXPECT_TRUE(recommends(plans, Model::SYCL));
  EXPECT_TRUE(recommends(plans, Model::OpenMP));
  EXPECT_TRUE(recommends(plans, Model::Kokkos));
  EXPECT_TRUE(recommends(plans, Model::Alpaka));
  EXPECT_TRUE(recommends(plans, Model::HIP));  // via chipStar on Intel
}

TEST(Planner, OpenACCInfeasibleOnIntelAtSomeSupport) {
  PlannerQuery q;
  q.language = Language::Cpp;
  q.allowed_models = {Model::OpenACC};
  q.must_run_on = {Vendor::Intel};
  q.minimum_category = SupportCategory::Some;
  EXPECT_TRUE(planner().plan(q).empty());
}

TEST(Planner, OpenACCOnIntelOnlyAtLimitedTier) {
  PlannerQuery q;
  q.language = Language::Cpp;
  q.allowed_models = {Model::OpenACC};
  q.must_run_on = {Vendor::Intel};
  q.minimum_category = SupportCategory::Limited;
  const auto plans = planner().plan(q);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].platforms[0].route->kind, RouteKind::Translator);
}

TEST(Planner, SyclFortranIsInfeasibleEverywhere) {
  PlannerQuery q;
  q.language = Language::Fortran;
  q.allowed_models = {Model::SYCL};
  for (const Vendor v : kAllVendors) {
    q.must_run_on = {v};
    EXPECT_TRUE(planner().plan(q).empty()) << to_string(v);
  }
}

TEST(Planner, NvidiaOnlyCppPrefersCuda) {
  PlannerQuery q;
  q.language = Language::Cpp;
  q.must_run_on = {Vendor::NVIDIA};
  q.minimum_category = SupportCategory::Some;
  const auto plans = planner().plan(q);
  ASSERT_FALSE(plans.empty());
  // Full-support vendor models rank first; CUDA, OpenACC and Standard all
  // qualify, CUDA among them.
  EXPECT_EQ(score(plans[0].platforms[0].category),
            score(SupportCategory::Full));
  EXPECT_TRUE(recommends(plans, Model::CUDA));
}

TEST(Planner, RequireMaintainedDropsGpufortRoute) {
  PlannerQuery q;
  q.language = Language::Fortran;
  q.allowed_models = {Model::CUDA};
  q.must_run_on = {Vendor::AMD};
  q.minimum_category = SupportCategory::Limited;
  q.require_maintained = true;
  EXPECT_TRUE(planner().plan(q).empty());
  q.require_maintained = false;
  const auto plans = planner().plan(q);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].platforms[0].route->name, "GPUFORT");
}

TEST(Planner, VendorSupportFilterExcludesCommunityRoutes) {
  PlannerQuery q;
  q.language = Language::Cpp;
  q.allowed_models = {Model::Kokkos};
  q.must_run_on = {Vendor::NVIDIA};
  q.require_vendor_support = true;
  // Kokkos on NVIDIA is community-provided -> infeasible under the filter.
  EXPECT_TRUE(planner().plan(q).empty());
}

TEST(Planner, UnpinnedPlatformsReturnPartialCoverage) {
  PlannerQuery q;
  q.language = Language::Cpp;
  q.allowed_models = {Model::OpenACC};
  q.minimum_category = SupportCategory::Some;
  const auto plans = planner().plan(q);
  ASSERT_EQ(plans.size(), 1u);
  // OpenACC covers NVIDIA and AMD but not Intel at this tier.
  EXPECT_EQ(plans[0].platforms.size(), 2u);
}

TEST(Planner, PlansAreSortedByRankDescending) {
  PlannerQuery q;
  q.language = Language::Cpp;
  const auto plans = planner().plan(q);
  for (std::size_t i = 1; i < plans.size(); ++i) {
    EXPECT_GE(plans[i - 1].rank, plans[i].rank);
  }
}

TEST(Planner, EveryPlanHasRationaleAndRoutes) {
  PlannerQuery q;
  q.language = Language::Cpp;
  for (const PlannedRoute& p : planner().plan(q)) {
    EXPECT_FALSE(p.rationale.empty());
    EXPECT_FALSE(p.platforms.empty());
    for (const auto& pv : p.platforms) {
      EXPECT_FALSE(pv.route->name.empty());
    }
  }
}

TEST(Planner, TranslatorFilterDropsMigrationOnlyCells) {
  // CUDA C++ on AMD is reachable only through HIPIFY (a translator);
  // excluding translators makes the cell infeasible.
  PlannerQuery q;
  q.language = Language::Cpp;
  q.allowed_models = {Model::CUDA};
  q.must_run_on = {Vendor::AMD};
  q.allow_translators = true;
  ASSERT_EQ(planner().plan(q).size(), 1u);
  q.allow_translators = false;
  EXPECT_TRUE(planner().plan(q).empty());
}

TEST(Planner, TranslatorFilterKeepsCompilerRoutes) {
  PlannerQuery q;
  q.language = Language::Cpp;
  q.allowed_models = {Model::SYCL};
  q.must_run_on = {Vendor::NVIDIA};
  q.allow_translators = false;
  const auto plans = planner().plan(q);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_NE(plans[0].platforms[0].route->kind, RouteKind::Translator);
}

TEST(Planner, PythonQueryWorks) {
  PlannerQuery q;
  q.language = Language::Python;
  q.must_run_on = {Vendor::NVIDIA, Vendor::Intel};
  const auto plans = planner().plan(q);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].model, Model::Python);
}

}  // namespace
}  // namespace mcmm
