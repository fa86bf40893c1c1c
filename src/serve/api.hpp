#pragma once
// The application layer of mcmm serve: routes HTTP requests onto the
// knowledge base. The dataset is immutable for the life of the process, so
// every GET response is rendered once at construction — body, strong ETag,
// and the header blocks of its 200 and its 304 — and served from the cache
// afterwards: request handling on the hot path is a lookup plus an
// If-None-Match comparison, answered by reference (Api::answer), safe to
// call from any number of loop threads concurrently. POST /v1/plan is
// computed per request: its body is read straight into a PlannerQuery, the
// planner built at construction answers it from per-cell tables, and each
// planned route's platform object, rendered once at construction, is
// spliced in.
//
//   GET  /            endpoint index
//   GET  /v1/matrix   ?format=json|txt|md|csv|html|latex|yaml (json default)
//   GET  /v1/cell/{vendor}/{model}/{language}
//   POST /v1/plan     PlannerQuery JSON -> ranked PlannedRoutes
//   GET  /v1/claims   machine-checked paper claims
//   GET  /v1/perf     Figure 2 (same format query; 404 unless the server
//                     ran the perf campaign — see ServerConfig::enable_perf)
//   GET  /healthz     liveness
//   GET  /metrics     Prometheus text exposition

#include <atomic>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/matrix.hpp"
#include "core/planner.hpp"
#include "perfport/perfport.hpp"
#include "serve/http.hpp"
#include "serve/metrics.hpp"

namespace mcmm::serve {

/// Strong ETag (quoted 64-bit FNV-1a hex) over a response body.
[[nodiscard]] std::string etag_for(std::string_view body);

/// Reads a POST /v1/plan body into `q`. Strict: an unknown key, a missing
/// language or a type mismatch is an error (a typo'd constraint silently
/// ignored would return wrong advice). A syntax error anywhere in the body
/// is reported ahead of any other error. A repeated key appends again to an
/// array and overwrites a scalar. On failure returns false with the error
/// response's detail in `error`.
[[nodiscard]] bool read_plan_query(std::string_view body, PlannerQuery& q,
                                   std::string& error);

class Api {
 public:
  /// Precomputes every cacheable response. `metrics` may be null (then
  /// GET /metrics reports an empty registry and /healthz a zero gauge);
  /// `draining` may be null (then /healthz always reports false); `perf`
  /// may be null (then GET /v1/perf answers 404). None are owned; `perf`
  /// is only read during construction.
  explicit Api(const CompatibilityMatrix& matrix,
               const Metrics* metrics = nullptr,
               const std::atomic<bool>* draining = nullptr,
               const perfport::PerfReport* perf = nullptr);

  /// Full dispatch, including conditional-GET: a request whose
  /// If-None-Match matches the resource's ETag gets a bodyless 304.
  /// HEAD routes like GET (the server layer drops the body on the wire).
  /// A cached resource is answered by reference: the response's
  /// header_block and shared_body view this Api's cache and allocate
  /// nothing. Other routes answer with an owned body.
  [[nodiscard]] Response answer(const Request& req) const;

  /// answer() with every field owned: a cached resource's body, ETag and
  /// content type are filled in, for callers that read them.
  [[nodiscard]] Response handle(const Request& req) const;

 private:
  struct Cached {
    std::string body;
    std::string content_type;
    std::string etag;
    std::string ok_block;            ///< header block of the 200
    std::string not_modified_block;  ///< header block of the 304
  };

  /// What routing a request yields: a cached resource, or an owned
  /// response when `cached` is null. Implicit from either, so a route
  /// returns whichever it has.
  struct Routed {
    Routed(const Cached& c) : cached(&c) {}
    Routed(Response r) : owned(std::move(r)) {}
    const Cached* cached{nullptr};
    Response owned;
  };

  [[nodiscard]] static Cached make_cached(std::string body,
                                          std::string content_type);
  /// True when the request's If-None-Match matches the resource's ETag.
  [[nodiscard]] static bool not_modified(const Cached& c, const Request& req);

  [[nodiscard]] Routed route(const Request& req) const;
  [[nodiscard]] Routed handle_matrix(const Request& req) const;
  [[nodiscard]] Routed handle_perf(const Request& req) const;
  [[nodiscard]] Routed handle_cell(const Request& req) const;
  [[nodiscard]] Response handle_plan(const Request& req) const;
  /// Rendered per request (not cached, no ETag): the in-flight gauge and
  /// the draining flag are live signals the gateway's balancer consumes.
  [[nodiscard]] Response handle_health() const;

  const Metrics* metrics_;
  const std::atomic<bool>* draining_;
  RoutePlanner planner_;
  std::map<std::string, Cached, std::less<>> matrix_formats_;
  /// Empty when the perf campaign was not run (then /v1/perf is a 404).
  std::map<std::string, Cached, std::less<>> perf_formats_;
  std::map<Combination, Cached> cells_;
  /// Every route of the matrix as the platform object a plan lists it in
  /// ({"vendor":…,"category":…,"route":{…}}), keyed by its address.
  std::unordered_map<const Route*, std::string> platform_json_;
  std::size_t max_platform_json_{};
  Cached claims_;
  Cached index_;
};

}  // namespace mcmm::serve
