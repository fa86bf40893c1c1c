#include "core/planner.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <span>

namespace mcmm {
namespace {

// The query's three route flags, as bits of an index into
// Cell::best_route.
constexpr std::size_t kRequireMaintained = 1;
constexpr std::size_t kRequireVendorSupport = 2;
constexpr std::size_t kAllowTranslators = 4;

[[nodiscard]] bool route_acceptable(const Route& r, std::size_t flags) {
  if ((flags & kRequireMaintained) != 0 &&
      (r.maturity == Maturity::Unmaintained ||
       r.maturity == Maturity::Retired)) {
    return false;
  }
  if ((flags & kRequireVendorSupport) != 0 &&
      r.provider != Provider::PlatformVendor) {
    return false;
  }
  if ((flags & kAllowTranslators) == 0 && r.kind == RouteKind::Translator) {
    return false;
  }
  return true;
}

/// Best acceptable route on an entry, or nullptr.
[[nodiscard]] const Route* best_route(const SupportEntry& e,
                                      std::size_t flags) {
  const Route* best = nullptr;
  for (const Route& r : e.routes) {
    if (!route_acceptable(r, flags)) continue;
    if (best == nullptr || route_rank(r) > route_rank(*best)) best = &r;
  }
  return best;
}

}  // namespace

std::size_t RoutePlanner::cell_index(Vendor v, Model m, Language l) noexcept {
  return (static_cast<std::size_t>(v) * kAllModels.size() +
          static_cast<std::size_t>(m)) *
             3 +
         static_cast<std::size_t>(l);
}

RoutePlanner::RoutePlanner(const CompatibilityMatrix& matrix) {
  for (const SupportEntry* e : matrix.entries()) {
    Cell& cell = cells_[cell_index(e->combo.vendor, e->combo.model,
                                   e->combo.language)];
    cell.present = true;
    cell.usable = e->usable();
    cell.best = e->best_category();
    cell.best_score = score(cell.best);
    for (const Rating& r : e->ratings) {
      if (vendor_provided(r.category)) {
        cell.best_vendor_score =
            std::max(cell.best_vendor_score, score(r.category));
      }
    }
    for (std::size_t flags = 0; flags < cell.best_route.size(); ++flags) {
      cell.best_route[flags] = best_route(*e, flags);
    }
  }
}

std::vector<PlannedRoute> RoutePlanner::plan(const PlannerQuery& q) const {
  const std::span<const Vendor> targets =
      q.must_run_on.empty() ? std::span<const Vendor>(kAllVendors)
                            : std::span<const Vendor>(q.must_run_on);
  const bool pinned = !q.must_run_on.empty();
  const int minimum = score(q.minimum_category);
  const std::size_t flags =
      (q.require_maintained ? kRequireMaintained : 0) |
      (q.require_vendor_support ? kRequireVendorSupport : 0) |
      (q.allow_translators ? kAllowTranslators : 0);
  // The route planned on `cell`, or nullptr when the cell is missing, misses
  // the minimum category or has no acceptable route.
  const auto pick = [&](const Cell& cell) -> const Route* {
    const bool acceptable = q.require_vendor_support
                                ? cell.best_vendor_score >= minimum
                                : cell.best_score >= minimum && cell.usable;
    return cell.present && acceptable ? cell.best_route[flags] : nullptr;
  };

  std::vector<PlannedRoute> out;
  for (const Model m : kAllModels) {
    if (!q.allowed_models.empty() &&
        std::find(q.allowed_models.begin(), q.allowed_models.end(), m) ==
            q.allowed_models.end()) {
      continue;
    }
    if (!language_applies(m, q.language)) continue;

    // When the user did not pin platforms, a model only needs to work
    // somewhere; when platforms are pinned, it must work on all of them.
    std::size_t covered = 0;
    int min_cell_score = score(SupportCategory::Full);
    SupportCategory weakest = SupportCategory::Full;
    int route_rank_sum = 0;
    bool feasible = true;
    for (const Vendor v : targets) {
      const Cell& cell = cells_[cell_index(v, m, q.language)];
      const Route* r = pick(cell);
      if (r == nullptr) {
        if (!pinned) continue;
        feasible = false;
        break;
      }
      ++covered;
      if (cell.best_score < min_cell_score) {
        min_cell_score = cell.best_score;
        weakest = cell.best;
      }
      route_rank_sum += route_rank(*r);
    }
    if (!feasible || covered == 0) continue;

    if (out.empty()) out.reserve(kAllModels.size());
    PlannedRoute& plan = out.emplace_back();
    plan.model = m;
    plan.platforms.reserve(covered);
    for (const Vendor v : targets) {
      const Cell& cell = cells_[cell_index(v, m, q.language)];
      if (const Route* r = pick(cell)) {
        plan.platforms.push_back(PlannedRoute::PerVendor{v, cell.best, r});
      }
    }
    const int n = static_cast<int>(covered);
    plan.rank = min_cell_score * 1000 + n * 100 + route_rank_sum / n;
    const std::string_view model = to_string(m);
    const std::string_view weakest_name = category_name(weakest);
    std::string& why = plan.rationale;
    why.reserve(model.size() + weakest_name.size() + 48);
    why += model;
    why += ": covers ";
    char digits[20];
    why.append(digits, std::to_chars(digits, std::end(digits), covered).ptr);
    why += " platform(s); weakest cell is '";
    why += weakest_name;
    why += '\'';
  }

  std::sort(out.begin(), out.end(),
            [](const PlannedRoute& a, const PlannedRoute& b) {
              if (a.rank != b.rank) return a.rank > b.rank;
              return a.model < b.model;
            });
  return out;
}

}  // namespace mcmm
