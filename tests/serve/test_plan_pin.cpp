// Pins POST /v1/plan byte for byte: the enumerated query grid of
// plan_grid.hpp, and a fixed list of malformed and edge-case bodies whose
// error responses (message and byte offset) must not drift. Any change to
// ranking, filtering, JSON layout or the reader's diagnostics moves a
// digest. The same grid checks that every planned route points into the
// matrix's own cell.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/planner.hpp"
#include "data/dataset.hpp"
#include "serve/api.hpp"
#include "serve/http.hpp"
#include "serve/json.hpp"
#include "serve/plan_grid.hpp"
#include "support/rng.hpp"

namespace mcmm {
namespace {

using testing::body_of;
using testing::fnv1a;
using testing::post_plan;
using testing::query_grid;

TEST(PlanPin, GridBodiesMatchTheRecordedDigest) {
  const serve::Api api(data::paper_matrix());
  std::uint64_t hash = fnv1a({});
  std::size_t bodies = 0;
  for (const PlannerQuery& q : query_grid()) {
    const serve::Response r = api.handle(post_plan(body_of(q)));
    ASSERT_EQ(r.status, 200) << body_of(q) << "\n" << r.body;
    hash = fnv1a(r.body, hash);
    ++bodies;
  }
  EXPECT_EQ(bodies, 5760u);
  EXPECT_EQ(hash, 0xaeb8a4b188eee231ULL) << std::hex << "digest 0x" << hash;
}

/// `open` copies of `open_char`, then `close` copies of `close_char`.
std::string nest(int open, char open_char, int close, char close_char) {
  return std::string(static_cast<std::size_t>(open), open_char) +
         std::string(static_cast<std::size_t>(close), close_char);
}

/// Bodies whose answers are not a plain grid plan: every syntax diagnostic
/// at a known offset, every semantic message, syntax errors that follow a
/// semantic one (the syntax error wins), duplicate keys, escapes and
/// surrogate pairs in keys and values, and the nesting limit.
std::vector<std::string> edge_bodies() {
  std::vector<std::string> bodies = {
      // Empty and non-object roots.
      "",
      " \r\n\t",
      "[]",
      R"("C++")",
      "42",
      "null",
      "true",
      "[1,2",
      // One body per syntax diagnostic.
      "{",
      R"({"language")",
      R"({"language":)",
      R"({"language":"C++")",
      R"({"language":"C++",})",
      R"({"language" "C++"})",
      R"({language:"C++"})",
      R"({"language":"C++"} x)",
      R"({"language":"C++"}})",
      "{\"language\":\"C++\"}\v",
      R"({"language":"C++","must_run_on":["AMD" "Intel"]})",
      R"({"language":"C++","must_run_on":["AMD",]})",
      R"({"language":"C++","must_run_on":[,"AMD"]})",
      "{\"language\":\"C\x01\"}",
      std::string("{\"language\":\"C\0\"}", 17),
      R"({"language":"C\)",
      R"({"language":"\u00)",
      R"({"language":"\u00zz"})",
      R"({"language":"\ud83d"})",
      R"({"language":"\ud83dx"})",
      R"({"language":"\ud83d\u0041"})",
      R"({"language":"\ud83d\u00"})",
      R"({"language":"\ud83d\uzzzz"})",
      R"({"language":"\ude00"})",
      R"({"language":"\x"})",
      R"({"language":"C++)",
      R"({"language":-})",
      R"({"language":01})",
      R"({"language":-01})",
      R"({"language":1.})",
      R"({"language":1.5e})",
      R"({"language":1e+})",
      R"({"language":1e999})",
      R"({"language":tru})",
      R"({"language":nul})",
      R"({"language":falsey})",
      R"({"language":'C++'})",
      // Well-formed numbers and literals where a string is wanted.
      R"({"language":-0.5e+3})",
      R"({"language":1E2})",
      R"({"language":null})",
      // Every semantic message.
      R"({"language":"Klingon"})",
      R"({"language":["C++"]})",
      R"({"language":"C++","must_run_on":"AMD"})",
      R"({"language":"C++","must_run_on":[1]})",
      R"({"language":"C++","must_run_on":["AMD","ARM"]})",
      R"({"language":"C++","allowed_models":{}})",
      R"({"language":"C++","allowed_models":["CUDA",null]})",
      R"({"language":"C++","allowed_models":["Fortran"]})",
      R"({"language":"C++","minimum_category":5})",
      R"({"language":"C++","minimum_category":"great"})",
      R"({"language":"C++","require_maintained":"yes"})",
      R"({"language":"C++","require_vendor_support":1})",
      R"({"language":"C++","allow_translators":null})",
      R"({"language":"C++","Language":"C++"})",
      R"({"language":"C++","":0})",
      "{}",
      R"({"must_run_on":["AMD"]})",
      // The first semantic error wins over later ones.
      R"({"language":"Klingon","must_run_on":1})",
      R"({"must_run_on":[1,2,"AMD"],"language":"C++","bogus":true})",
      // A syntax error after a semantic one wins.
      R"({"language":"Klingon","must_run_on":[1})",
      R"({"bogus":true,"language":"C++"} trailing)",
      R"({"language":7,"x":"\q"})",
      R"({"language":{"a":[{"b":"\u12"}]}})",
      R"({"must_run_on":[1,{"k":[01]}],"language":"C++"})",
      R"({"language":"C++","minimum_category":"great","x":1e999})",
      R"({"language":"C++","must_run_on":["ARM",-],"y":2})",
      // Duplicate keys: arrays append, scalars overwrite.
      R"({"language":"C++","must_run_on":["AMD"],)"
      R"("must_run_on":["NVIDIA","AMD"]})",
      R"({"language":"Python","language":"Fortran"})",
      R"({"language":"Klingon","language":"C++"})",
      R"({"language":"C++","language":"Klingon"})",
      R"({"minimum_category":"full","minimum_category":"limited",)"
      R"("language":"C++"})",
      R"({"require_maintained":false,"require_maintained":true,)"
      R"("language":"C++"})",
      R"({"language":"C++","allowed_models":["CUDA"],"allowed_models":[],)"
      R"("allowed_models":["HIP"]})",
      // Escapes and surrogate pairs in keys and values.
      R"({"\u006canguage":"C\u002b\u002B"})",
      R"({"language":"\u0046ortran",)"
      R"("must_run_on":["\u0041MD","NVIDI\u0041"]})",
      R"({"language":"\ud83d\ude00"})",
      R"({"language":"\uD83D\uDE00\u00e9\u20AC"})",
      R"({"\ud83d\ude00":1,"language":"C++"})",
      R"({"lang\u0000uage":"C++"})",
      R"({"language":"a\u0000b\u001f\"\\\/\b\f\n\r\t"})",
      R"({"language":"C++","allowed_models":["Kokkos\u0000"]})",
      "{\"language\":\"Forträn\"}",
      R"({"language":")" + std::string(300, 'x') + "\"}",
      // Whitespace everywhere it is allowed.
      " \t\r\n{ \"language\" : \"C++\" , \"must_run_on\" : [ \"AMD\" ,"
      " \"Intel\" ] , \"allowed_models\" : [ ] } \n",
  };
  // The nesting limit: 64 levels below the root parse, 65 do not.
  bodies.push_back(nest(65, '[', 65, ']'));
  bodies.push_back(nest(66, '[', 66, ']'));
  bodies.push_back(nest(200, '[', 0, ']'));
  bodies.push_back("{\"language\":" + nest(64, '[', 64, ']') + "}");
  bodies.push_back("{\"language\":" + nest(65, '[', 65, ']') + "}");
  bodies.push_back("{\"language\": " + nest(65, '[', 65, ']') + "}");
  bodies.push_back("{\"language\":\"C++\",\"x\":[" + nest(64, '[', 64, ']') +
                   "]}");
  bodies.push_back("{\"language\":\"C++\",\"x\":[ " +
                   nest(65, '[', 65, ']') + "]}");
  return bodies;
}

TEST(PlanPin, ErrorBodiesMatchTheRecordedDigest) {
  const serve::Api api(data::paper_matrix());
  std::uint64_t hash = fnv1a({});
  std::size_t bodies = 0;
  for (const std::string& body : edge_bodies()) {
    const serve::Response r = api.handle(post_plan(body));
    hash = fnv1a(std::to_string(r.status) + ' ', hash);
    hash = fnv1a(r.body, hash);
    ++bodies;
  }
  EXPECT_EQ(bodies, 100u);
  EXPECT_EQ(hash, 0x23e92e5c4ea0d347ULL) << std::hex << "digest 0x" << hash;
}

/// `body` with 1 to 4 seeded byte mutations: overwrite, insert or delete a
/// byte (biased to JSON's structural and escape characters), duplicate a
/// slice, or truncate.
std::string mutate(std::string body, testing::rng& rng) {
  static constexpr std::string_view kBytes =
      "\"\\{}[],: \tu0123e.-+tfnaE\x01\x7f\xc3\xa9";
  const auto some_byte = [&] {
    return rng.below(4) == 0 ? static_cast<char>(rng.below(256))
                             : kBytes[rng.below(kBytes.size())];
  };
  const std::size_t edits = 1 + rng.below(4);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t at = rng.below(body.size() + 1);
    switch (rng.below(5)) {
      case 0:
        if (at < body.size()) body[at] = some_byte();
        break;
      case 1:
        body.insert(body.begin() + static_cast<std::ptrdiff_t>(at),
                    some_byte());
        break;
      case 2:
        if (at < body.size()) body.erase(at, 1);
        break;
      case 3: {
        const std::size_t len = rng.below(body.size() - at + 1);
        body.insert(rng.below(body.size() + 1), body.substr(at, len));
        break;
      }
      default:
        body.resize(at);
        break;
    }
  }
  return body;
}

TEST(PlanReader, MutantsGiveTheSameSyntaxErrorAsJsonParse) {
  constexpr std::uint64_t kSeed = 20231025;
  RecordProperty("seed", std::to_string(kSeed));
  std::cout << "mutation seed " << kSeed << "\n";
  std::vector<std::string> corpus = edge_bodies();
  for (const PlannerQuery& q : query_grid()) corpus.push_back(body_of(q));
  testing::rng rng(kSeed);
  std::size_t rejected = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string body = mutate(corpus[rng.below(corpus.size())], rng);
    std::string parse_error;
    const bool parsed = serve::json_parse(body, &parse_error).has_value();
    PlannerQuery q;
    std::string error;
    (void)serve::read_plan_query(body, q, error);
    const bool syntax_error = error.starts_with("invalid JSON body: ");
    ASSERT_EQ(syntax_error, !parsed)
        << "seed " << kSeed << " mutant " << i << ": " << body << "\n"
        << error;
    if (!parsed) {
      ASSERT_EQ(error, "invalid JSON body: " + parse_error)
          << "seed " << kSeed << " mutant " << i << ": " << body;
      ++rejected;
    }
  }
  // Most mutants break the syntax, but not all: both outcomes are covered.
  EXPECT_GT(rejected, 1000u);
  EXPECT_LT(rejected, 19000u);
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
