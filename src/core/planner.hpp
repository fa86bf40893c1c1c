#pragma once
// RoutePlanner: the "guide for scientific programmers" the paper's abstract
// promises, as an API. Given a language, target platform(s), and policy
// constraints, it enumerates and ranks the concrete routes recorded in the
// knowledge base.

#include <array>
#include <string>
#include <vector>

#include "core/matrix.hpp"

namespace mcmm {

/// Constraints a user brings to the table.
struct PlannerQuery {
  Language language{Language::Cpp};
  /// Platforms the code must run on. Empty = any single platform is fine.
  std::vector<Vendor> must_run_on;
  /// Restrict to specific models (empty = all models considered).
  std::vector<Model> allowed_models;
  /// Require at least this support tier on every requested platform.
  SupportCategory minimum_category{SupportCategory::Limited};
  /// Drop routes that are unmaintained or retired.
  bool require_maintained{true};
  /// Only accept support provided by the platform vendor itself.
  bool require_vendor_support{false};
  /// Accept one-shot source-translation routes (HIPIFY, SYCLomatic, the
  /// OpenACC migration tool). Teams planning a maintained single source
  /// usually want this off.
  bool allow_translators{true};
};

/// One ranked recommendation.
struct PlannedRoute {
  Model model{};
  /// Per requested vendor: the cell and the best concrete route on it.
  struct PerVendor {
    Vendor vendor{};
    SupportCategory category{};
    /// Points into the CompatibilityMatrix the planner was built on, which
    /// must outlive the plan; never null.
    const Route* route{};
  };
  std::vector<PerVendor> platforms;
  /// Aggregate rank (higher is better): min cell score across platforms,
  /// tie-broken by route ranks.
  int rank{};
  /// Human-readable explanation of the ranking.
  std::string rationale;
};

class RoutePlanner {
 public:
  /// Decides every cell once: each query is then table lookups and a sort.
  /// `matrix` must outlive the planner and the plans it returns.
  explicit RoutePlanner(const CompatibilityMatrix& matrix);

  /// Returns recommendations sorted best-first. Empty result means no model
  /// satisfies the constraints (e.g. OpenACC-only + must_run_on Intel).
  [[nodiscard]] std::vector<PlannedRoute> plan(const PlannerQuery& q) const;

 private:
  /// What a query needs to know about one (vendor, model, language) cell.
  struct Cell {
    bool present{};  ///< the matrix has the cell
    bool usable{};
    SupportCategory best{SupportCategory::None};
    int best_score{};
    /// Best score among the vendor-provided ratings; -1 when there is none.
    int best_vendor_score{-1};
    /// The best acceptable route for each combination of the query's three
    /// route flags, or nullptr.
    std::array<const Route*, 8> best_route{};
  };

  /// Vendors x models x the three languages.
  static constexpr std::size_t kCells =
      kAllVendors.size() * kAllModels.size() * 3;

  [[nodiscard]] static std::size_t cell_index(Vendor v, Model m,
                                              Language l) noexcept;

  std::array<Cell, kCells> cells_{};
};

}  // namespace mcmm
