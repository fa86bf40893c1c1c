// Counted work: the exact number of heap allocations a request makes on its
// way through the serve path a connection runs (RequestParser -> Api::handle
// -> serialize_response), per request class. Counts repeat exactly from run
// to run, where timings on a shared host drift, so these budgets gate the
// per-request work in tier-1. A change may lower a budget; one that raises
// a budget says which and why in CHANGES.md.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "serve/api.hpp"
#include "serve/http.hpp"
#include "serve/plan_grid.hpp"

// Binary-wide allocation counter (the idiom of tests/gpusim/test_engine.cpp).
namespace {
std::atomic<long>& alloc_count() {
  static std::atomic<long> count{0};
  return count;
}
}  // namespace

// malloc/free-backed replacements; see test_engine.cpp for why GCC's
// mismatched-new-delete warning is a false positive here.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  alloc_count().fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  alloc_count().fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mcmm::serve {
namespace {

/// Allocations made by each stage of one request.
struct Allocs {
  long parse{};
  long handle{};
  long serialize{};
  friend bool operator==(const Allocs&, const Allocs&) = default;
};

std::ostream& operator<<(std::ostream& os, const Allocs& a) {
  return os << "{parse " << a.parse << ", handle " << a.handle
            << ", serialize " << a.serialize << "}";
}

const Api& api() {
  static const Api instance(data::paper_matrix());
  return instance;
}

/// Runs `wire` through parse, handle and serialize once to warm up, then
/// once more counting; `status` receives the response status.
Allocs count_request(const std::string& wire, int* status = nullptr) {
  Allocs a;
  for (int pass = 0; pass < 2; ++pass) {
    long mark = alloc_count().load(std::memory_order_relaxed);
    const auto lap = [&] {
      const long now = alloc_count().load(std::memory_order_relaxed);
      const long n = now - mark;
      mark = now;
      return n;
    };
    RequestParser parser;
    EXPECT_EQ(parser.feed(wire), RequestParser::Status::Complete) << wire;
    const Request req = parser.take_request();
    a.parse = lap();
    const Response resp = api().handle(req);
    a.handle = lap();
    const std::string out =
        serialize_response(resp, false, req.keep_alive());
    a.serialize = lap();
    if (status != nullptr) *status = resp.status;
  }
  return a;
}

std::string get_wire(const std::string& target,
                     const std::string& if_none_match = {}) {
  std::string wire = "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!if_none_match.empty()) {
    wire += "If-None-Match: " + if_none_match + "\r\n";
  }
  return wire + "\r\n";
}

TEST(WorkBudget, CachedMatrixJson) {
  int status = 0;
  EXPECT_EQ(count_request(get_wire("/v1/matrix?format=json"), &status),
            (Allocs{5, 3, 1}));
  EXPECT_EQ(status, 200);
}

TEST(WorkBudget, CachedCell) {
  int status = 0;
  EXPECT_EQ(count_request(get_wire("/v1/cell/AMD/HIP/cpp"), &status),
            (Allocs{5, 3, 1}));
  EXPECT_EQ(status, 200);
}

TEST(WorkBudget, Healthz) {
  int status = 0;
  EXPECT_EQ(count_request(get_wire("/healthz"), &status), (Allocs{3, 4, 1}));
  EXPECT_EQ(status, 200);
}

TEST(WorkBudget, NotModified) {
  RequestParser parser;
  ASSERT_EQ(parser.feed(get_wire("/v1/cell/AMD/HIP/cpp")),
            RequestParser::Status::Complete);
  const std::string etag = api().handle(parser.take_request()).etag;
  int status = 0;
  EXPECT_EQ(count_request(get_wire("/v1/cell/AMD/HIP/cpp", etag), &status),
            (Allocs{7, 2, 1}));
  EXPECT_EQ(status, 304);
}

TEST(WorkBudget, PlanQueries) {
  struct Case {
    const char* body;
    Allocs budget;
  };
  const Case cases[] = {
      // Every vendor, every model.
      {R"({"language":"C++"})", {4, 19, 1}},
      // All three vendors pinned, vendor support only.
      {R"({"language":"Fortran","must_run_on":["AMD","Intel","NVIDIA"],)"
       R"("minimum_category":"some","require_vendor_support":true})",
       {4, 6, 1}},
      // One model on one vendor.
      {R"({"language":"C++","must_run_on":["Intel"],)"
       R"("allowed_models":["OpenACC"]})",
       {4, 7, 1}},
      // No model qualifies.
      {R"({"language":"Fortran","must_run_on":["Intel"],)"
       R"("allowed_models":["CUDA"],"minimum_category":"full"})",
       {4, 4, 1}},
      // A syntax error.
      {R"({"language":"C++",})", {4, 8, 1}},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(count_request(testing::plan_wire(c.body)), c.budget) << c.body;
  }
}

TEST(WorkBudget, PlanGridMean) {
  Allocs total;
  long requests = 0;
  for (const PlannerQuery& q : testing::query_grid()) {
    const Allocs a = count_request(testing::plan_wire(testing::body_of(q)));
    total.parse += a.parse;
    total.handle += a.handle;
    total.serialize += a.serialize;
    ++requests;
  }
  ASSERT_EQ(requests, 5760);
  std::cout << "per plan request: parse "
            << static_cast<double>(total.parse) / requests << ", handle "
            << static_cast<double>(total.handle) / requests << ", serialize "
            << static_cast<double>(total.serialize) / requests << "\n";
  EXPECT_EQ(total, (Allocs{23040, 35282, 5760}));
}

}  // namespace
}  // namespace mcmm::serve
