#include "core/planner.hpp"

#include <algorithm>
#include <limits>

namespace mcmm {
namespace {

[[nodiscard]] bool route_acceptable(const Route& r, const PlannerQuery& q) {
  if (q.require_maintained && (r.maturity == Maturity::Unmaintained ||
                               r.maturity == Maturity::Retired)) {
    return false;
  }
  if (q.require_vendor_support && r.provider != Provider::PlatformVendor) {
    return false;
  }
  if (!q.allow_translators && r.kind == RouteKind::Translator) {
    return false;
  }
  return true;
}

/// Best acceptable route on an entry, or nullptr.
[[nodiscard]] const Route* best_route(const SupportEntry& e,
                                      const PlannerQuery& q) {
  const Route* best = nullptr;
  for (const Route& r : e.routes) {
    if (!route_acceptable(r, q)) continue;
    if (best == nullptr || route_rank(r) > route_rank(*best)) best = &r;
  }
  return best;
}

[[nodiscard]] bool category_acceptable(const SupportEntry& e,
                                       const PlannerQuery& q) {
  if (q.require_vendor_support) {
    return std::any_of(e.ratings.begin(), e.ratings.end(),
                       [&](const Rating& r) {
                         return vendor_provided(r.category) &&
                                score(r.category) >= score(q.minimum_category);
                       });
  }
  return score(e.best_category()) >= score(q.minimum_category) && e.usable();
}

}  // namespace

std::vector<PlannedRoute> RoutePlanner::plan(const PlannerQuery& q) const {
  std::vector<Vendor> targets = q.must_run_on;
  if (targets.empty()) {
    targets.assign(kAllVendors.begin(), kAllVendors.end());
  }

  std::vector<PlannedRoute> out;
  for (const Model m : kAllModels) {
    if (!q.allowed_models.empty() &&
        std::find(q.allowed_models.begin(), q.allowed_models.end(), m) ==
            q.allowed_models.end()) {
      continue;
    }
    if (!language_applies(m, q.language)) continue;

    PlannedRoute plan;
    plan.model = m;
    bool feasible = true;
    int min_cell_score = std::numeric_limits<int>::max();
    int route_rank_sum = 0;
    for (const Vendor v : targets) {
      const SupportEntry* e = matrix_->find(Combination{v, m, q.language});
      if (e == nullptr || !category_acceptable(*e, q)) {
        // When the user did not pin platforms, a model only needs to work
        // somewhere; when platforms are pinned, it must work on all of them.
        if (!q.must_run_on.empty()) {
          feasible = false;
          break;
        }
        continue;
      }
      const Route* r = best_route(*e, q);
      if (r == nullptr) {
        if (!q.must_run_on.empty()) {
          feasible = false;
          break;
        }
        continue;
      }
      plan.platforms.push_back(PlannedRoute::PerVendor{
          v, e->best_category(), r});
      min_cell_score = std::min(min_cell_score, score(e->best_category()));
      route_rank_sum += route_rank(*r);
    }
    if (!feasible || plan.platforms.empty()) continue;

    plan.rank = min_cell_score * 1000 +
                static_cast<int>(plan.platforms.size()) * 100 +
                route_rank_sum / static_cast<int>(plan.platforms.size());
    plan.rationale = std::string(to_string(m)) + ": covers " +
                     std::to_string(plan.platforms.size()) +
                     " platform(s); weakest cell is '" +
                     std::string(category_name(static_cast<SupportCategory>(
                         [&] {
                           SupportCategory weakest = SupportCategory::Full;
                           for (const auto& p : plan.platforms) {
                             if (score(p.category) < score(weakest)) {
                               weakest = p.category;
                             }
                           }
                           return weakest;
                         }()))) +
                     "'";
    out.push_back(std::move(plan));
  }

  std::sort(out.begin(), out.end(),
            [](const PlannedRoute& a, const PlannedRoute& b) {
              if (a.rank != b.rank) return a.rank > b.rank;
              return a.model < b.model;
            });
  return out;
}

}  // namespace mcmm
