// Pins POST /v1/plan byte for byte over an enumerated query grid: every
// language x every must_run_on subset x every minimum_category x all 8 flag
// combinations x a fixed list of allowed_models sets. Any change to
// ranking, filtering or JSON layout moves the digest. The same grid checks
// that every planned route points into the matrix's own cell.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/planner.hpp"
#include "data/dataset.hpp"
#include "serve/api.hpp"
#include "serve/http.hpp"
#include "serve/json.hpp"

namespace mcmm {
namespace {

using serve::json_quote;

constexpr std::array<Language, 3> kLanguages{Language::Cpp, Language::Fortran,
                                              Language::Python};

/// No restriction, one native model, the portability layers, the directive
/// models plus stdpar, and a pair across both ends of the figure.
const std::vector<std::vector<Model>> kModelSets{
    {},
    {Model::CUDA},
    {Model::SYCL, Model::Kokkos, Model::Alpaka},
    {Model::OpenACC, Model::OpenMP, Model::Standard},
    {Model::HIP, Model::Python},
};

/// The grid in a fixed order; 3 x 8 x 6 x 8 x 5 = 5760 queries.
std::vector<PlannerQuery> query_grid() {
  std::vector<PlannerQuery> grid;
  for (const Language language : kLanguages) {
    for (unsigned subset = 0; subset < 8; ++subset) {
      for (const SupportCategory category : kAllCategories) {
        for (unsigned flags = 0; flags < 8; ++flags) {
          for (const std::vector<Model>& models : kModelSets) {
            PlannerQuery q;
            q.language = language;
            for (std::size_t v = 0; v < kAllVendors.size(); ++v) {
              if ((subset & (1u << v)) != 0) {
                q.must_run_on.push_back(kAllVendors[v]);
              }
            }
            q.allowed_models = models;
            q.minimum_category = category;
            q.require_maintained = (flags & 1u) != 0;
            q.require_vendor_support = (flags & 2u) != 0;
            q.allow_translators = (flags & 4u) != 0;
            grid.push_back(std::move(q));
          }
        }
      }
    }
  }
  return grid;
}

/// The request body naming every field of `q` explicitly.
std::string body_of(const PlannerQuery& q) {
  std::string body = "{\"language\":" + json_quote(to_string(q.language));
  body += ",\"must_run_on\":[";
  for (std::size_t i = 0; i < q.must_run_on.size(); ++i) {
    if (i != 0) body += ',';
    body += json_quote(to_string(q.must_run_on[i]));
  }
  body += "],\"allowed_models\":[";
  for (std::size_t i = 0; i < q.allowed_models.size(); ++i) {
    if (i != 0) body += ',';
    body += json_quote(to_string(q.allowed_models[i]));
  }
  body += "],\"minimum_category\":";
  body += json_quote(category_name(q.minimum_category));
  body += ",\"require_maintained\":";
  body += q.require_maintained ? "true" : "false";
  body += ",\"require_vendor_support\":";
  body += q.require_vendor_support ? "true" : "false";
  body += ",\"allow_translators\":";
  body += q.allow_translators ? "true" : "false";
  body += '}';
  return body;
}

serve::Request post_plan(const std::string& body) {
  serve::RequestParser parser;
  EXPECT_EQ(parser.feed("POST /v1/plan HTTP/1.1\r\nContent-Length: " +
                        std::to_string(body.size()) + "\r\n\r\n" + body),
            serve::RequestParser::Status::Complete);
  return parser.take_request();
}

TEST(PlanPin, GridBodiesMatchTheRecordedDigest) {
  const serve::Api api(data::paper_matrix());
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a 64
  std::size_t bodies = 0;
  for (const PlannerQuery& q : query_grid()) {
    const serve::Response r = api.handle(post_plan(body_of(q)));
    ASSERT_EQ(r.status, 200) << body_of(q) << "\n" << r.body;
    for (const char c : r.body) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ULL;
    }
    ++bodies;
  }
  EXPECT_EQ(bodies, 5760u);
  EXPECT_EQ(hash, 0xaeb8a4b188eee231ULL) << std::hex << "digest 0x" << hash;
}

TEST(PlanPin, PlannedRoutesPointIntoTheirMatrixCell) {
  const CompatibilityMatrix& matrix = data::paper_matrix();
  const RoutePlanner planner(matrix);
  std::size_t checked = 0;
  for (const PlannerQuery& q : query_grid()) {
    for (const PlannedRoute& p : planner.plan(q)) {
      for (const PlannedRoute::PerVendor& pv : p.platforms) {
        const SupportEntry* e =
            matrix.find(Combination{pv.vendor, p.model, q.language});
        ASSERT_NE(e, nullptr) << body_of(q);
        const auto is_planned = [&](const Route& r) { return &r == pv.route; };
        ASSERT_TRUE(std::ranges::any_of(e->routes, is_planned))
            << body_of(q) << " " << to_string(pv.vendor);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace mcmm
