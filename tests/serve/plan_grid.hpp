#pragma once
// The enumerated POST /v1/plan query grid shared by the plan pins, the
// JSON reader's differential test and the allocation budgets: every
// language x every must_run_on subset x every minimum_category x all 8
// flag combinations x a fixed list of allowed_models sets.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/planner.hpp"
#include "serve/http.hpp"
#include "serve/json.hpp"
#include "support/fnv1a.hpp"

namespace mcmm::testing {

inline constexpr std::array<Language, 3> kGridLanguages{
    Language::Cpp, Language::Fortran, Language::Python};

/// No restriction, one native model, the portability layers, the directive
/// models plus stdpar, and a pair across both ends of the figure.
inline const std::vector<std::vector<Model>>& grid_model_sets() {
  static const std::vector<std::vector<Model>> sets{
      {},
      {Model::CUDA},
      {Model::SYCL, Model::Kokkos, Model::Alpaka},
      {Model::OpenACC, Model::OpenMP, Model::Standard},
      {Model::HIP, Model::Python},
  };
  return sets;
}

/// The grid in a fixed order; 3 x 8 x 6 x 8 x 5 = 5760 queries.
inline std::vector<PlannerQuery> query_grid() {
  std::vector<PlannerQuery> grid;
  for (const Language language : kGridLanguages) {
    for (unsigned subset = 0; subset < 8; ++subset) {
      for (const SupportCategory category : kAllCategories) {
        for (unsigned flags = 0; flags < 8; ++flags) {
          for (const std::vector<Model>& models : grid_model_sets()) {
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
inline std::string body_of(const PlannerQuery& q) {
  using serve::json_quote;
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

/// The full wire form of a POST /v1/plan carrying `body`.
inline std::string plan_wire(std::string_view body) {
  std::string wire = "POST /v1/plan HTTP/1.1\r\nContent-Length: ";
  wire += std::to_string(body.size());
  wire += "\r\n\r\n";
  wire += body;
  return wire;
}

/// `body` as a POST /v1/plan request, through the real HTTP parser.
inline serve::Request post_plan(std::string_view body) {
  serve::RequestParser parser;
  EXPECT_EQ(parser.feed(plan_wire(body)),
            serve::RequestParser::Status::Complete);
  return parser.take_request();
}

}  // namespace mcmm::testing
