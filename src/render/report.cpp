#include "render/report.hpp"

#include <iomanip>
#include <sstream>

namespace mcmm::render {

std::string claims_report(const Claims& claims) {
  std::ostringstream out;
  out << "Paper claims vs. dataset:\n";
  int pass = 0;
  const auto results = claims.evaluate_all();
  for (const ClaimResult& r : results) {
    out << "  [" << (r.holds ? "PASS" : "FAIL") << "] " << r.id << ": "
        << r.statement << "\n         evidence: " << r.evidence << "\n";
    if (r.holds) ++pass;
  }
  out << pass << "/" << results.size() << " claims hold\n";
  return out.str();
}

std::string statistics_report(const Statistics& stats) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(2);
  out << "Per-vendor support statistics (17 cells each):\n";
  for (const VendorStats& vs : stats.vendors()) {
    out << "  " << std::setw(6) << to_string(vs.vendor)
        << ": coverage=" << vs.coverage_score
        << "  usable=" << vs.usable_cells
        << "  comprehensive=" << vs.comprehensive_cells
        << "  vendor-provided=" << vs.vendor_provided_cells << "\n";
    out << "          histogram:";
    for (const SupportCategory c : kAllCategories) {
      const auto it = vs.histogram.find(c);
      const int n = it == vs.histogram.end() ? 0 : it->second;
      out << " " << category_symbol(c) << "=" << n;
    }
    out << "\n";
  }
  out << "Overall: " << stats.usable_combinations() << "/"
      << kCombinationCount << " combinations usable, "
      << stats.dual_rated_cells() << " dual-rated cells\n";
  out << "Primary-rating providers:";
  for (const auto& [provider, n] : stats.provider_histogram()) {
    out << " " << to_string(provider) << "=" << n;
  }
  out << "\n";
  out << "Per-language coverage:\n";
  for (const LanguageStats& ls : stats.languages()) {
    out << "  " << std::setw(7) << to_string(ls.language) << ": usable "
        << ls.usable_cells << "/" << ls.total_cells
        << ", mean score " << ls.coverage_score << "\n";
  }
  out << "Per-model platform reach (C++ / Fortran usable vendors):\n";
  for (const ModelStats& ms : stats.models()) {
    out << "  " << std::setw(8) << to_string(ms.model) << ": C++ on "
        << ms.vendors_usable_cpp << "/3";
    if (ms.model != Model::Python) {
      out << ", Fortran on " << ms.vendors_usable_fortran << "/3";
    }
    out << ", vendor-native on " << ms.vendors_vendor_native << "/3\n";
  }
  return out.str();
}

std::string plan_report(const std::vector<PlannedRoute>& plans) {
  std::ostringstream out;
  if (plans.empty()) {
    out << "No programming model satisfies the given constraints.\n";
    return out.str();
  }
  int i = 1;
  for (const PlannedRoute& p : plans) {
    out << i++ << ". " << to_string(p.model) << " (rank " << p.rank << ")\n";
    for (const auto& pv : p.platforms) {
      out << "     " << std::setw(6) << to_string(pv.vendor) << ": "
          << category_name(pv.category) << " via " << pv.route->name << " ("
          << pv.route->toolchain;
      for (const std::string& f : pv.route->flags) out << " " << f;
      out << ")";
      if (!pv.route->environment.empty()) {
        out << " env:";
        for (const std::string& e : pv.route->environment) out << " " << e;
      }
      out << "\n";
    }
    out << "     " << p.rationale << "\n";
  }
  return out.str();
}

std::string description_text(const CompatibilityMatrix& m,
                             int description_id) {
  const Description& d = m.description(description_id);
  std::ostringstream out;
  out << "[" << d.id << "] " << d.title << "\n" << d.text << "\n";
  for (const SupportEntry* e : m.cells_of_description(description_id)) {
    out << "  cell " << to_string(e->combo) << ": ";
    for (std::size_t i = 0; i < e->ratings.size(); ++i) {
      if (i > 0) out << " + ";
      out << category_name(e->ratings[i].category);
    }
    out << "\n";
    for (const Route& r : e->routes) {
      out << "    route: " << r.name << " [" << to_string(r.kind) << ", "
          << to_string(r.maturity) << "]\n";
    }
  }
  if (!d.references.empty()) {
    out << "  references:";
    for (const std::string& r : d.references) out << " " << r << ";";
    out << "\n";
  }
  return out.str();
}

}  // namespace mcmm::render
